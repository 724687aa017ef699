package rtree

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/space"
)

// wildPoint draws a query point, some of whose coordinates lie far outside
// the bounded sides randRect draws.
func wildPoint(r *rand.Rand, dim int) space.Point {
	p := make(space.Point, dim)
	for d := range p {
		switch r.Intn(8) {
		case 0:
			p[d] = -1e12 * r.Float64()
		case 1:
			p[d] = 1e12 * r.Float64()
		default:
			p[d] = r.Float64()*40 - 10
		}
	}
	return p
}

// TestBuildMatchesBruteForce bulk-loads every population size from 0 to
// 300 of rects with many unbounded sides, crossing each height change of
// the packing, and checks the shape
// (fill between m and M off the root, exact MBRs, extent) and point
// queries against the oracle.
func TestBuildMatchesBruteForce(t *testing.T) {
	const dim = 3
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 300; n++ {
		rects := make([]space.Rect, n)
		var oracle bruteIndex
		for i := range rects {
			rects[i] = randRect(r, dim)
			oracle.insert(rects[i], i)
		}
		tr, err := Build(dim, rects)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len %d", n, tr.Len())
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if f := maxFill(tr.root); n > maxEntries && f > buildFill {
			t.Fatalf("n=%d: a node below the root holds %d entries, want at most %d", n, f, buildFill)
		}
		for q := 0; q < 20; q++ {
			p := wildPoint(r, dim)
			sameIDs(t, tr.SearchPoint(p), oracle.searchPoint(p), "point query")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(2, []space.Rect{space.FullRect(2), {space.Span(0, 1)}}); err == nil || !strings.Contains(err.Error(), "index 1") {
		t.Errorf("dim mismatch: err %v", err)
	}
	if _, err := Build(2, []space.Rect{{space.Span(0, 1), space.Span(3, 3)}}); err == nil {
		t.Error("empty rect accepted")
	}
}

// TestBuildThenChurn changes a bulk-loaded tree, and a clone taken of it,
// through inserts and deletes that split, reinsert and condense, and
// checks both against the oracle.
func TestBuildThenChurn(t *testing.T) {
	const dim = 4
	r := rand.New(rand.NewSource(8))
	rects := make([]space.Rect, 2000)
	var oracle bruteIndex
	for i := range rects {
		rects[i] = randRect(r, dim)
		oracle.insert(rects[i], i)
	}
	tr, err := Build(dim, rects)
	if err != nil {
		t.Fatal(err)
	}
	frozen := tr.Clone()
	frozenOracle := bruteIndex{rects: append([]space.Rect(nil), oracle.rects...), ids: append([]int(nil), oracle.ids...)}
	for i := 0; i < 1000; i++ {
		rect := randRect(r, dim)
		if err := tr.Insert(rect, len(rects)+i); err != nil {
			t.Fatal(err)
		}
		oracle.insert(rect, len(rects)+i)
		if j := r.Intn(len(rects)); oracle.remove(rects[j], j) && !tr.Delete(rects[j], j) {
			t.Fatalf("delete %d failed", j)
		}
	}
	for _, c := range []struct {
		tr     *Tree
		oracle *bruteIndex
	}{{tr, &oracle}, {frozen, &frozenOracle}} {
		if err := c.tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if c.tr.Len() != len(c.oracle.ids) {
			t.Fatalf("Len %d, want %d", c.tr.Len(), len(c.oracle.ids))
		}
		for q := 0; q < 200; q++ {
			p := wildPoint(r, dim)
			sameIDs(t, c.tr.SearchPoint(p), c.oracle.searchPoint(p), "point after churn")
		}
	}
}

// TestExtentKeepsSidesFinite: the heuristics' view of a wildcard side is
// the extent, not ±maxCoord, and a point outside the extent is still
// answered from the stored clamp.
func TestExtentKeepsSidesFinite(t *testing.T) {
	tr, err := Build(2, []space.Rect{
		{space.Span(2, 5), space.Full()},
		{space.LeftOf(1), space.Span(-3, 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []space.Interval{{Lo: 1, Hi: 5}, {Lo: -3, Hi: 4}}
	for d := range want {
		if tr.ext[d] != want[d] {
			t.Fatalf("extent %v, want %v", tr.ext, want)
		}
	}
	if a := areaOf(space.FullRect(2), tr.ext); a != 4*7 {
		t.Errorf("area of a full wildcard %v, want 28", a)
	}
	sameIDs(t, tr.SearchPoint(space.Point{-1e200, 0}), []int{1}, "far left point")
	sameIDs(t, tr.SearchPoint(space.Point{3, 1e200}), []int{0}, "far up point")

	// Axes no bounded side reaches, or only one value does, still get a
	// positive width.
	tr, err = Build(3, []space.Rect{
		{space.Full(), space.LeftOf(0.5), space.RightOf(1e17)},
		{space.RightOf(math.MaxFloat64), space.LeftOf(0.5), space.LeftOf(1e17)},
	})
	if err != nil {
		t.Fatal(err)
	}
	want = []space.Interval{{Lo: 0, Hi: 1}, {Lo: 0.5, Hi: 1.5}, {Lo: 1e17, Hi: 2e17}}
	for d := range want {
		if tr.ext[d] != want[d] {
			t.Fatalf("extent %v, want %v", tr.ext, want)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// maxFill returns the most entries any node below n holds.
func maxFill(n *node) int {
	f := 0
	if !n.leaf {
		for i := range n.entries {
			c := n.entries[i].child
			f = max(f, len(c.entries), maxFill(c))
		}
	}
	return f
}

// countEntries returns the number of entries in the subtree under n.
func countEntries(n *node) int {
	c := len(n.entries)
	if !n.leaf {
		for i := range n.entries {
			c += countEntries(n.entries[i].child)
		}
	}
	return c
}

// stabCost walks a point query the way SearchPoint does and counts the
// entries it tests and the nodes it visits.
func stabCost(n *node, p space.Point) (entries, nodes int) {
	entries, nodes = len(n.entries), 1
	if n.leaf {
		return entries, nodes
	}
	for i := range n.entries {
		if n.entries[i].rect.Contains(p) {
			e, k := stabCost(n.entries[i].child, p)
			entries, nodes = entries+e, nodes+k
		}
	}
	return entries, nodes
}

// wildcardPopulation draws n 4-D rects shaped like the stock workload's
// subscriptions: bounded spans, except that axis 2 is a full wildcard in
// 15 % of rects and axis 3 in 35 %.
func wildcardPopulation(r *rand.Rand, n int) []space.Rect {
	rects := make([]space.Rect, n)
	for i := range rects {
		rect := make(space.Rect, 4)
		for d := range rect {
			lo := r.Float64() * 100
			rect[d] = space.Span(lo, lo+5+r.Float64()*35)
		}
		if r.Float64() < 0.15 {
			rect[2] = space.Full()
		}
		if r.Float64() < 0.35 {
			rect[3] = space.Full()
		}
		rects[i] = rect
	}
	return rects
}

func uniformPoints(r *rand.Rand, n int) []space.Point {
	pts := make([]space.Point, n)
	for i := range pts {
		pts[i] = space.Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
	}
	return pts
}

// TestSearchPrunesWildcards guards the index's pruning on a wildcard-heavy
// population: a stab must test at most a quarter of the tree's entries,
// whether the tree was bulk-loaded or grown by Insert. With the R*
// heuristics reading wildcard sides at ±maxCoord, every area that includes
// one is ~1e293, +Inf or NaN, and an insertion-built tree tests half of
// its entries. The counts are deterministic for the seeded input.
func TestSearchPrunesWildcards(t *testing.T) {
	if raceEnabled {
		t.Skip("the counts do not depend on the race detector, which slows the 20k insertions tenfold")
	}
	r := rand.New(rand.NewSource(36))
	rects := wildcardPopulation(r, 20000)
	pts := uniformPoints(r, 300)
	built, err := Build(4, rects)
	if err != nil {
		t.Fatal(err)
	}
	grown := New(4)
	for i, rect := range rects {
		if err := grown.Insert(rect, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		tr   *Tree
	}{{"Build", built}, {"Insert", grown}} {
		total := countEntries(c.tr.root)
		tested := 0
		for _, p := range pts {
			e, _ := stabCost(c.tr.root, p)
			tested += e
		}
		share := float64(tested) / float64(len(pts)) / float64(total)
		t.Logf("%s: a stab tests %.1f %% of %d entries", c.name, 100*share, total)
		if share > 0.25 {
			t.Errorf("%s: a stab tests %.1f %% of the entries, want at most 25 %%", c.name, 100*share)
		}
	}
}

func BenchmarkSearchPointWildcard(b *testing.B) {
	r := rand.New(rand.NewSource(36))
	tr, err := Build(4, wildcardPopulation(r, 20000))
	if err != nil {
		b.Fatal(err)
	}
	pts := uniformPoints(r, 256)
	var out []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = tr.SearchPointAppend(pts[i%len(pts)], out[:0])
	}
}

func BenchmarkBuild(b *testing.B) {
	rects := wildcardPopulation(rand.New(rand.NewSource(36)), 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(4, rects); err != nil {
			b.Fatal(err)
		}
	}
}
