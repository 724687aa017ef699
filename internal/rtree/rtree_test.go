package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/space"
)

// bruteIndex is the oracle: a flat list with linear scans.
type bruteIndex struct {
	rects []space.Rect
	ids   []int
}

func (b *bruteIndex) insert(r space.Rect, id int) {
	b.rects = append(b.rects, r.Clone())
	b.ids = append(b.ids, id)
}

func (b *bruteIndex) remove(r space.Rect, id int) bool {
	for i := range b.ids {
		if b.ids[i] == id && b.rects[i].Equal(r) {
			b.rects = append(b.rects[:i], b.rects[i+1:]...)
			b.ids = append(b.ids[:i], b.ids[i+1:]...)
			return true
		}
	}
	return false
}

func (b *bruteIndex) searchPoint(p space.Point) []int {
	var out []int
	for i, r := range b.rects {
		if r.Contains(p) {
			out = append(out, b.ids[i])
		}
	}
	return out
}

func (b *bruteIndex) searchRect(q space.Rect) []int {
	var out []int
	for i, r := range b.rects {
		if r.Intersects(q) {
			out = append(out, b.ids[i])
		}
	}
	return out
}

func sameIDs(t *testing.T, got, want []int, ctx string) {
	t.Helper()
	g := append([]int(nil), got...)
	w := append([]int(nil), want...)
	sort.Ints(g)
	sort.Ints(w)
	if len(g) != len(w) {
		t.Fatalf("%s: got %v want %v", ctx, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: got %v want %v", ctx, g, w)
		}
	}
}

func randRect(r *rand.Rand, dim int) space.Rect {
	rect := make(space.Rect, dim)
	for d := range rect {
		switch r.Intn(10) {
		case 0:
			rect[d] = space.Full()
		case 1:
			rect[d] = space.LeftOf(r.Float64() * 20)
		case 2:
			rect[d] = space.RightOf(r.Float64() * 20)
		default:
			lo := r.Float64() * 20
			rect[d] = space.Span(lo, lo+r.Float64()*8+0.01)
		}
	}
	return rect
}

func randPoint(r *rand.Rand, dim int) space.Point {
	p := make(space.Point, dim)
	for d := range p {
		p[d] = r.Float64()*24 - 2
	}
	return p
}

func TestNewPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

func TestInsertErrors(t *testing.T) {
	tr := New(2)
	if err := tr.Insert(space.Rect{space.Span(0, 1)}, 1); err == nil {
		t.Error("dim mismatch accepted")
	}
	if err := tr.Insert(space.Rect{space.Span(0, 1), space.Span(5, 5)}, 1); err == nil {
		t.Error("empty rect accepted")
	}
	if tr.Len() != 0 {
		t.Error("failed inserts changed size")
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := New(3)
	if got := tr.SearchPoint(space.Point{1, 2, 3}); len(got) != 0 {
		t.Errorf("SearchPoint on empty = %v", got)
	}
	if got := tr.SearchRect(space.FullRect(3)); len(got) != 0 {
		t.Errorf("SearchRect on empty = %v", got)
	}
	if tr.Delete(space.FullRect(3), 0) {
		t.Error("Delete on empty succeeded")
	}
}

func TestSmallTree(t *testing.T) {
	tr := New(2)
	a := space.Rect{space.Span(0, 10), space.Span(0, 10)}
	b := space.Rect{space.Span(5, 15), space.Span(5, 15)}
	c := space.Rect{space.LeftOf(3), space.Full()}
	for i, r := range []space.Rect{a, b, c} {
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
	sameIDs(t, tr.SearchPoint(space.Point{7, 7}), []int{0, 1}, "point (7,7)")
	sameIDs(t, tr.SearchPoint(space.Point{2, -100}), []int{2}, "point (2,-100)")
	sameIDs(t, tr.SearchPoint(space.Point{100, 100}), nil, "far point")
	sameIDs(t, tr.SearchRect(space.Rect{space.Span(9, 12), space.Span(9, 12)}), []int{0, 1}, "rect query")
}

func TestHalfOpenSemantics(t *testing.T) {
	tr := New(1)
	tr.Insert(space.Rect{space.Span(0, 5)}, 1)
	if got := tr.SearchPoint(space.Point{0}); len(got) != 0 {
		t.Error("lower boundary should be excluded")
	}
	if got := tr.SearchPoint(space.Point{5}); len(got) != 1 {
		t.Error("upper boundary should be included")
	}
}

func TestInsertManyMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tr := New(3)
	var oracle bruteIndex
	for i := 0; i < 800; i++ {
		rect := randRect(r, 3)
		if err := tr.Insert(rect, i); err != nil {
			t.Fatal(err)
		}
		oracle.insert(rect, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.depth() < 2 {
		t.Error("tree did not grow in depth; split never exercised")
	}
	for q := 0; q < 300; q++ {
		p := randPoint(r, 3)
		sameIDs(t, tr.SearchPoint(p), oracle.searchPoint(p), "point query")
	}
	for q := 0; q < 100; q++ {
		rect := randRect(r, 3)
		sameIDs(t, tr.SearchRect(rect), oracle.searchRect(rect), "rect query")
	}
}

func TestDeleteMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	tr := New(2)
	var oracle bruteIndex
	rects := make([]space.Rect, 400)
	for i := range rects {
		rects[i] = randRect(r, 2)
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
		oracle.insert(rects[i], i)
	}
	// Delete a random half, verifying queries after each batch.
	perm := r.Perm(len(rects))
	for k, i := range perm[:200] {
		if !tr.Delete(rects[i], i) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if !oracle.remove(rects[i], i) {
			t.Fatalf("oracle remove(%d) failed", i)
		}
		if tr.Delete(rects[i], i) {
			t.Fatalf("double delete (%d) succeeded", i)
		}
		if k%40 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("after %d deletes: %v", k+1, err)
			}
			for q := 0; q < 40; q++ {
				p := randPoint(r, 2)
				sameIDs(t, tr.SearchPoint(p), oracle.searchPoint(p), "point after delete")
			}
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("Len = %d after deletes", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tr := New(2)
	rects := make([]space.Rect, 100)
	for i := range rects {
		rects[i] = randRect(r, 2)
		tr.Insert(rects[i], i)
	}
	for i := range rects {
		if !tr.Delete(rects[i], i) {
			t.Fatalf("Delete(%d) failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	// Tree remains usable.
	tr.Insert(rects[0], 7)
	sameIDs(t, tr.SearchRect(space.FullRect(2)), []int{7}, "reuse after drain")
}

func TestDeleteWrongRectFails(t *testing.T) {
	tr := New(1)
	tr.Insert(space.Rect{space.Span(0, 5)}, 1)
	if tr.Delete(space.Rect{space.Span(0, 6)}, 1) {
		t.Error("deleted with wrong rect")
	}
	if tr.Delete(space.Rect{space.Span(0, 5)}, 2) {
		t.Error("deleted with wrong id")
	}
	if tr.Len() != 1 {
		t.Error("size corrupted")
	}
}

func TestDuplicateRects(t *testing.T) {
	tr := New(1)
	r := space.Rect{space.Span(0, 5)}
	for i := 0; i < 50; i++ {
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	got := tr.SearchPoint(space.Point{3})
	if len(got) != 50 {
		t.Fatalf("got %d results for duplicate rects", len(got))
	}
	if !tr.Delete(r, 31) {
		t.Fatal("delete one duplicate failed")
	}
	if len(tr.SearchPoint(space.Point{3})) != 49 {
		t.Fatal("wrong count after duplicate delete")
	}
}

func TestSearchPointDimPanics(t *testing.T) {
	tr := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tr.SearchPoint(space.Point{1})
}

func TestQuickRandomOps(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := New(2)
		var oracle bruteIndex
		type item struct {
			rect space.Rect
			id   int
		}
		var live []item
		nextID := 0
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.Intn(3) > 0 {
				rect := randRect(r, 2)
				tr.Insert(rect, nextID)
				oracle.insert(rect, nextID)
				live = append(live, item{rect, nextID})
				nextID++
			} else {
				i := r.Intn(len(live))
				it := live[i]
				if !tr.Delete(it.rect, it.id) {
					return false
				}
				oracle.remove(it.rect, it.id)
				live = append(live[:i], live[i+1:]...)
			}
		}
		if tr.Len() != len(live) {
			return false
		}
		if err := tr.checkInvariants(); err != nil {
			return false
		}
		for q := 0; q < 30; q++ {
			p := randPoint(r, 2)
			got := tr.SearchPoint(p)
			want := oracle.searchPoint(p)
			sort.Ints(got)
			sort.Ints(want)
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsert1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	rects := make([]space.Rect, 1000)
	for i := range rects {
		rects[i] = randRect(r, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := New(4)
		for j, rc := range rects {
			tr.Insert(rc, j)
		}
	}
}

func BenchmarkSearchPoint(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New(4)
	for j := 0; j < 5000; j++ {
		tr.Insert(randRect(r, 4), j)
	}
	pts := make([]space.Point, 256)
	for i := range pts {
		pts[i] = randPoint(r, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.SearchPoint(pts[i%len(pts)])
	}
}

// TestInsertDeleteAllocs bounds the heap allocations of one Insert and one
// Delete on a 10k-entry tree that owns all its nodes: the clamped rect, the
// MBRs rebuilt along the path and the occasional split or reinsertion. The
// level bookkeeping and the root-to-leaf path cost nothing.
func TestInsertDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	const (
		dim   = 4
		n     = 10000
		runs  = 500
		extra = runs + 1 // AllocsPerRun also makes one warm-up call
	)
	rng := rand.New(rand.NewSource(4))
	rects := make([]space.Rect, n+extra)
	for i := range rects {
		rects[i] = randRect(rng, dim)
	}
	tr := New(dim)
	for i := 0; i < n; i++ {
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
	}
	i := n
	ins := testing.AllocsPerRun(runs, func() {
		if err := tr.Insert(rects[i], i); err != nil {
			t.Fatal(err)
		}
		i++
	})
	i = n
	del := testing.AllocsPerRun(runs, func() {
		if !tr.Delete(rects[i], i) {
			t.Fatalf("delete %d failed", i)
		}
		i++
	})
	// The counts are deterministic for this seeded input; a per-insertion
	// map for the reinserted levels alone would add one to each.
	if ins > 36 || del > 14 {
		t.Fatalf("allocs per op: insert %.0f (max 36), delete %.0f (max 14)", ins, del)
	}
}
