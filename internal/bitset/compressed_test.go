package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// patterns the ISSUE calls out explicitly: empty, single bit, a full chunk,
// alternating bits — each sits on a promotion/demotion boundary.
func boundaryPatterns(n int) []*Set {
	empty := New(n)
	single := New(n)
	if n > 0 {
		single.Set(n / 2)
	}
	full := New(n)
	for i := 0; i < n && i < chunkBits; i++ {
		full.Set(i)
	}
	alt := New(n)
	for i := 0; i < n; i += 2 {
		alt.Set(i)
	}
	cutoff := New(n) // exactly arrayCutoff bits in chunk 0: array/bitmap edge
	for i := 0; i < n && i < arrayCutoff; i++ {
		cutoff.Set(i)
	}
	over := New(n) // one past the cutoff: must be a bitmap container
	for i := 0; i < n && i < arrayCutoff+1; i++ {
		over.Set(i)
	}
	return []*Set{empty, single, full, alt, cutoff, over}
}

func randomDensitySet(rng *rand.Rand, n int, density float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Set(i)
		}
	}
	return s
}

func TestCompressRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, chunkBits - 1, chunkBits, chunkBits + 1, 3 * chunkBits} {
		for _, s := range boundaryPatterns(n) {
			c := Compress(s)
			if !c.ToSet().Equal(s) {
				t.Fatalf("n=%d: round trip lost bits", n)
			}
			if c.Count() != s.Count() {
				t.Fatalf("n=%d: Count %d vs %d", n, c.Count(), s.Count())
			}
			for i := 0; i < n; i += 17 {
				if c.Test(i) != s.Test(i) {
					t.Fatalf("n=%d: Test(%d) mismatch", n, i)
				}
			}
		}
	}
}

func TestCompressedSetClearMatchesDense(t *testing.T) {
	// Drive random Set/Clear sequences across the promotion/demotion
	// boundary and check the compressed set tracks the dense one exactly.
	rng := rand.New(rand.NewSource(71))
	n := 2*chunkBits + 333
	dense := New(n)
	c := NewCompressed(n)
	for step := 0; step < 30000; step++ {
		i := rng.Intn(n)
		// Bias toward chunk 0 so its container crosses arrayCutoff in both
		// directions several times during the walk.
		if rng.Intn(4) != 0 {
			i = rng.Intn(arrayCutoff + 512)
		}
		if rng.Intn(3) == 0 {
			dense.Clear(i)
			c.Clear(i)
		} else {
			dense.Set(i)
			c.Set(i)
		}
	}
	if !c.ToSet().Equal(dense) {
		t.Fatal("compressed diverged from dense after Set/Clear walk")
	}
	if got, want := c.Count(), dense.Count(); got != want {
		t.Fatalf("Count %d, want %d", got, want)
	}
	// The walk must have left chunk 0 in one kind or the other; whichever
	// it is, re-compressing the dense set must agree bit for bit.
	if !c.Equal(Compress(dense)) {
		t.Fatal("incremental build disagrees with Compress of the same bits")
	}
}

// TestQuickCompressedKernelsMatchDense is the bit-identity property test:
// every compressed kernel must return exactly what the dense formulation
// returns, for random sets of varied density.
func TestQuickCompressedKernelsMatchDense(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	err := quick.Check(func(seed int64, dA, dB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3*chunkBits)
		a := randomDensitySet(rng, n, float64(dA%100)/99)
		b := randomDensitySet(rng, n, float64(dB%100)/99)
		ca, cb := Compress(a), Compress(b)

		wantAB, wantBA := a.WastePair(b)
		if gotAB, gotBA := ca.WastePairSet(b); gotAB != wantAB || gotBA != wantBA {
			return false
		}
		if gotAB, gotBA := ca.WastePair(cb); gotAB != wantAB || gotBA != wantBA {
			return false
		}
		if ca.IntersectCountSet(b) != a.IntersectCount(b) {
			return false
		}
		if ca.IntersectCount(cb) != a.IntersectCount(b) {
			return false
		}
		u := a.Clone()
		wantU := u.UnionWithCount(b)
		cu := ca.Clone()
		if cu.UnionWithCount(cb) != wantU {
			return false
		}
		return cu.ToSet().Equal(u)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressedKernelsOnBoundaryPatterns(t *testing.T) {
	n := 2*chunkBits + 123
	pats := boundaryPatterns(n)
	for i, a := range pats {
		ca := Compress(a)
		for j, b := range pats {
			wantAB, wantBA := a.WastePair(b)
			if gotAB, gotBA := ca.WastePairSet(b); gotAB != wantAB || gotBA != wantBA {
				t.Fatalf("pat %d vs %d: WastePairSet (%d,%d) want (%d,%d)", i, j, gotAB, gotBA, wantAB, wantBA)
			}
			cb := Compress(b)
			if gotAB, gotBA := ca.WastePair(cb); gotAB != wantAB || gotBA != wantBA {
				t.Fatalf("pat %d vs %d: compressed WastePair (%d,%d) want (%d,%d)", i, j, gotAB, gotBA, wantAB, wantBA)
			}
			if got, want := ca.IntersectCountSet(b), a.IntersectCount(b); got != want {
				t.Fatalf("pat %d vs %d: IntersectCountSet %d want %d", i, j, got, want)
			}
		}
	}
}

// FuzzCompressedWastePair fuzzes the compressed-vs-dense bit identity with
// arbitrary byte-string universes, catching container-boundary edge cases
// the generators above might miss.
func FuzzCompressedWastePair(f *testing.F) {
	f.Add([]byte{0x01}, []byte{0xff}, uint16(64))
	f.Add([]byte{0xaa, 0x55}, []byte{}, uint16(65000))
	f.Add([]byte{0xff, 0xff, 0xff}, []byte{0x00, 0x80}, uint16(200))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, nRaw uint16) {
		n := int(nRaw)%(2*chunkBits) + 1
		a, b := New(n), New(n)
		for i, by := range rawA {
			for bit := 0; bit < 8; bit++ {
				if by&(1<<bit) != 0 {
					idx := (i*8 + bit*131) % n
					a.Set(idx)
				}
			}
		}
		for i, by := range rawB {
			for bit := 0; bit < 8; bit++ {
				if by&(1<<bit) != 0 {
					idx := (i*8 + bit*257) % n
					b.Set(idx)
				}
			}
		}
		ca, cb := Compress(a), Compress(b)
		wantAB, wantBA := a.WastePair(b)
		if gotAB, gotBA := ca.WastePairSet(b); gotAB != wantAB || gotBA != wantBA {
			t.Fatalf("WastePairSet (%d,%d), dense (%d,%d)", gotAB, gotBA, wantAB, wantBA)
		}
		if gotAB, gotBA := ca.WastePair(cb); gotAB != wantAB || gotBA != wantBA {
			t.Fatalf("compressed WastePair (%d,%d), dense (%d,%d)", gotAB, gotBA, wantAB, wantBA)
		}
		if !ca.ToSet().Equal(a) {
			t.Fatal("round trip lost bits")
		}
	})
}

func TestCompressedForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomDensitySet(rng, 3*chunkBits, 0.01)
	// Force a bitmap container in chunk 1.
	for i := chunkBits; i < chunkBits+arrayCutoff+100; i++ {
		s.Set(i)
	}
	c := Compress(s)
	want := s.Indices()
	got := c.Indices()
	if len(got) != len(want) {
		t.Fatalf("Indices length %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Indices[%d] = %d want %d", i, got[i], want[i])
		}
	}
}

func TestCompressedMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched universes")
		}
	}()
	Compress(New(100)).WastePairSet(New(200))
}
