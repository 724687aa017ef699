package bitset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, s.Len())
		}
		if s.Count() != 0 {
			t.Errorf("New(%d).Count() = %d, want 0", n, s.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearTest(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Errorf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Test(i) {
			t.Errorf("bit %d set after Clear", i)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	cases := []func(*Set){
		func(s *Set) { s.Set(-1) },
		func(s *Set) { s.Set(10) },
		func(s *Set) { s.Test(10) },
		func(s *Set) { s.Clear(-5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(New(10))
		}()
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	a, b := New(10), New(11)
	defer func() {
		if recover() == nil {
			t.Fatal("UnionWith with mismatched lengths did not panic")
		}
	}()
	a.UnionWith(b)
}

func TestCount(t *testing.T) {
	s := FromIndices(200, 0, 63, 64, 100, 199)
	if got := s.Count(); got != 5 {
		t.Errorf("Count() = %d, want 5", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(100, 1, 2, 3, 70)
	b := FromIndices(100, 2, 3, 4, 99)

	if got := a.Union(b).Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 70, 99}) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b).Indices(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.AndNotCount(b); got != 2 {
		t.Errorf("AndNotCount = %d, want 2", got)
	}
	if got := b.AndNotCount(a); got != 2 {
		t.Errorf("AndNotCount reverse = %d, want 2", got)
	}
	if got := a.IntersectCount(b); got != 2 {
		t.Errorf("IntersectCount = %d, want 2", got)
	}
	if a.IsSubsetOf(b) {
		t.Error("IsSubsetOf = true, want false")
	}
	if !a.Intersect(b).IsSubsetOf(a) {
		t.Error("a∩b ⊄ a")
	}
}

func TestDisjoint(t *testing.T) {
	a := FromIndices(64, 0, 1)
	b := FromIndices(64, 2, 3)
	if a.IntersectCount(b) != 0 {
		t.Error("disjoint IntersectCount != 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(64, 5)
	c := a.Clone()
	c.Set(6)
	if a.Test(6) {
		t.Error("mutating clone affected original")
	}
	if !c.Test(5) {
		t.Error("clone missing original bit")
	}
}

func TestEqual(t *testing.T) {
	a := FromIndices(64, 1)
	b := FromIndices(64, 1)
	c := FromIndices(64, 2)
	d := FromIndices(65, 1)
	if !a.Equal(b) {
		t.Error("equal sets not Equal")
	}
	if a.Equal(c) {
		t.Error("different sets Equal")
	}
	if a.Equal(d) {
		t.Error("different-length sets Equal")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := FromIndices(64, 1, 2, 3)
	var seen []int
	s.ForEach(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("early stop saw %v", seen)
	}
}

func TestHashEqualSets(t *testing.T) {
	a := FromIndices(200, 3, 77, 150)
	b := FromIndices(200, 3, 77, 150)
	if a.Hash() != b.Hash() {
		t.Error("equal sets hash differently")
	}
	b.Set(151)
	if a.Hash() == b.Hash() {
		t.Error("suspicious: different sets hash equally (possible but unlikely)")
	}
}

func TestString(t *testing.T) {
	if got := FromIndices(64, 1, 5).String(); got != "{1, 5}" {
		t.Errorf("String() = %q", got)
	}
	if got := New(10).String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			s.Set(i)
		}
	}
	return s
}

func TestQuickSetAlgebraLaws(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(300)
		a, b := randomSet(r, n), randomSet(r, n)

		// |a∪b| = |a| + |b| - |a∩b|
		if a.Union(b).Count() != a.Count()+b.Count()-a.IntersectCount(b) {
			return false
		}
		// |a| = |a∖b| + |a∩b|
		if a.Count() != a.AndNotCount(b)+a.IntersectCount(b) {
			return false
		}
		// a∩b ⊆ a ⊆ a∪b, and a∩b agrees with its count
		i := a.Intersect(b)
		if !i.IsSubsetOf(a) || !a.IsSubsetOf(a.Union(b)) || i.Count() != a.IntersectCount(b) {
			return false
		}
		// union and intersection are commutative
		if !a.Union(b).Equal(b.Union(a)) || !i.Equal(b.Intersect(a)) {
			return false
		}
		// (a∪b)∖b has exactly a∖b's count
		if a.Union(b).AndNotCount(b) != a.AndNotCount(b) {
			return false
		}
		// ForEach agrees with Test
		ok := true
		a.ForEach(func(i int) bool {
			if !a.Test(i) {
				ok = false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(law, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountMatchesIndices(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randomSet(r, 1+r.Intn(500))
		return len(s.Indices()) == s.Count()
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAndNotCount(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 4096), randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndNotCount(y)
	}
}

func TestQuickFusedKernelsMatchNaive(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(600)
		a, b := randomSet(r, n), randomSet(r, n)

		// WastePair is the fusion of two AndNotCount scans.
		aNotB, bNotA := a.WastePair(b)
		if aNotB != a.AndNotCount(b) || bNotA != b.AndNotCount(a) {
			return false
		}
		// UnionWithCount mutates like UnionWith and counts like Count.
		u := a.Union(b)
		c := a.Clone()
		if c.UnionWithCount(b) != u.Count() || !c.Equal(u) {
			return false
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHashIgnoresConstructionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomSet(r, 500)
	// Rebuild the same membership through a different mutation history.
	b := New(500)
	for _, i := range a.Indices() {
		b.Set(i)
	}
	b.Set(13)
	if !a.Test(13) {
		b.Clear(13)
	}
	if !a.Equal(b) {
		t.Fatal("test setup broken: sets differ")
	}
	if a.Hash() != b.Hash() {
		t.Error("equal sets built differently hash differently")
	}
}

func BenchmarkWastePair(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 4096), randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = x.WastePair(y)
	}
}

// BenchmarkAndNotCountPair is the unfused equivalent of BenchmarkWastePair:
// the same two counts via two independent scans.
func BenchmarkAndNotCountPair(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomSet(r, 4096), randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.AndNotCount(y)
		_ = y.AndNotCount(x)
	}
}

func BenchmarkHash(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := randomSet(r, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Hash()
	}
}
