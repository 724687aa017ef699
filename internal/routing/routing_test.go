package routing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// lineGraph builds 0-1-2-...-n-1 with unit edges.
func lineGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph(n)
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(topology.NodeID(i), topology.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 5)
	spt := Dijkstra(g, 0)
	for i := 0; i < 5; i++ {
		if spt.Dist[i] != float64(i) {
			t.Errorf("Dist[%d] = %v", i, spt.Dist[i])
		}
	}
	if spt.Parent[0] != -1 {
		t.Error("root parent not -1")
	}
	path := spt.PathTo(3)
	want := []topology.NodeID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v", path)
		}
	}
	if spt.TreeCost() != 4 {
		t.Errorf("TreeCost = %v", spt.TreeCost())
	}
}

func TestDijkstraPicksShortcut(t *testing.T) {
	// 0-1 cost 10, 0-2 cost 1, 2-1 cost 1 → dist(0,1) = 2 via 2.
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	g.AddEdge(2, 1, 1)
	spt := Dijkstra(g, 0)
	if spt.Dist[1] != 2 {
		t.Errorf("Dist[1] = %v, want 2", spt.Dist[1])
	}
	if spt.Parent[1] != 2 {
		t.Errorf("Parent[1] = %v, want 2", spt.Parent[1])
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 1)
	spt := Dijkstra(g, 0)
	if !math.IsInf(spt.Dist[2], 1) {
		t.Error("unreachable node has finite distance")
	}
	if spt.PathTo(2) != nil {
		t.Error("path to unreachable node")
	}
	// Coverer ignores unreachable targets.
	c := NewCoverer(spt)
	if got := c.Cost([]topology.NodeID{2}); got != 0 {
		t.Errorf("cover cost to unreachable = %v", got)
	}
}

func TestDijkstraBadRootPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dijkstra(topology.NewGraph(2), 5)
}

func TestCovererSharedPrefix(t *testing.T) {
	// Star of paths: 0-1-2 and 0-1-3; covering {2,3} must count edge 0-1 once.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 2)
	spt := Dijkstra(g, 0)
	c := NewCoverer(spt)
	if got := c.Cost([]topology.NodeID{2, 3}); got != 8 {
		t.Errorf("cover cost = %v, want 8", got)
	}
	// Repeated queries must be independent (epoch reset).
	if got := c.Cost([]topology.NodeID{2}); got != 6 {
		t.Errorf("second cover cost = %v, want 6", got)
	}
	if got := c.Cost(nil); got != 0 {
		t.Errorf("empty cover cost = %v", got)
	}
	if got := c.Cost([]topology.NodeID{0}); got != 0 {
		t.Errorf("cover cost to root = %v", got)
	}
}

func TestCovererEqualsTreeCostForAllNodes(t *testing.T) {
	cfg := topology.Net100
	cfg.Seed = 3
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spt := Dijkstra(g, 0)
	all := make([]topology.NodeID, g.NumNodes())
	for i := range all {
		all[i] = topology.NodeID(i)
	}
	c := NewCoverer(spt)
	if got, want := c.Cost(all), spt.TreeCost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("cover-all %v != tree cost %v", got, want)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Components() != 5 {
		t.Fatal("initial components wrong")
	}
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("union failed")
	}
	if uf.Union(1, 0) {
		t.Error("re-union reported merge")
	}
	if uf.Components() != 3 {
		t.Errorf("components = %d", uf.Components())
	}
	if !uf.Same(0, 1) || uf.Same(0, 2) {
		t.Error("Same wrong")
	}
	uf.Union(0, 2)
	if !uf.Same(1, 3) {
		t.Error("transitivity broken")
	}
}

func TestUnionFindNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewUnionFind(-1)
}

func TestKruskalKnown(t *testing.T) {
	// Square with diagonal: MST must use the three cheapest non-cyclic edges.
	g := topology.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 2)
	g.AddEdge(2, 3, 3)
	g.AddEdge(3, 0, 4)
	g.AddEdge(0, 2, 10)
	edges, cost := KruskalMST(g)
	if cost != 6 || len(edges) != 3 {
		t.Errorf("MST cost=%v edges=%d, want 6/3", cost, len(edges))
	}
}

func TestKruskalForest(t *testing.T) {
	g := topology.NewGraph(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 2)
	edges, cost := KruskalMST(g)
	if len(edges) != 2 || cost != 3 {
		t.Errorf("forest: edges=%d cost=%v", len(edges), cost)
	}
}

// bruteMSTCost enumerates spanning trees of tiny graphs via bitmask edge
// subsets.
func bruteMSTCost(g *topology.Graph) float64 {
	edges := g.Edges()
	n := g.NumNodes()
	best := math.Inf(1)
	for mask := 0; mask < 1<<len(edges); mask++ {
		uf := NewUnionFind(n)
		cost := 0.0
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				uf.Union(int(e.U), int(e.V))
				cost += e.Cost
			}
		}
		if uf.Components() == 1 && cost < best {
			best = cost
		}
	}
	return best
}

func TestQuickKruskalMatchesBruteForce(t *testing.T) {
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		g := topology.NewGraph(n)
		// Random connected graph: spanning tree + extras, ≤10 edges total.
		for i := 1; i < n; i++ {
			g.AddEdge(topology.NodeID(i), topology.NodeID(r.Intn(i)), float64(1+r.Intn(9)))
		}
		for i := 0; i < n && g.NumEdges() < 10; i++ {
			u, v := topology.NodeID(r.Intn(n)), topology.NodeID(r.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.AddEdge(u, v, float64(1+r.Intn(9)))
			}
		}
		_, got := KruskalMST(g)
		return math.Abs(got-bruteMSTCost(g)) < 1e-9
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllPairsSymmetricAndTriangle(t *testing.T) {
	cfg := topology.Net100
	cfg.Seed = 9
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ap := NewAllPairs(g)
	n := g.NumNodes()
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		u, v, w := r.Intn(n), r.Intn(n), r.Intn(n)
		if math.Abs(ap.Dist[u][v]-ap.Dist[v][u]) > 1e-9 {
			t.Fatalf("asymmetric: d(%d,%d)=%v d(%d,%d)=%v", u, v, ap.Dist[u][v], v, u, ap.Dist[v][u])
		}
		if ap.Dist[u][w] > ap.Dist[u][v]+ap.Dist[v][w]+1e-9 {
			t.Fatalf("triangle violated: %d-%d-%d", u, v, w)
		}
	}
	for u := 0; u < n; u++ {
		if ap.Dist[u][u] != 0 {
			t.Fatalf("d(%d,%d) = %v", u, u, ap.Dist[u][u])
		}
	}
}

func TestOverlayMST(t *testing.T) {
	g := lineGraph(t, 5) // distances = index gaps
	ap := NewAllPairs(g)
	cost, edges := OverlayMST(ap, []topology.NodeID{0, 2, 4})
	// Closure distances: 0-2 = 2, 2-4 = 2, 0-4 = 4 → MST = 4.
	if cost != 4 || len(edges) != 2 {
		t.Errorf("overlay cost=%v edges=%v", cost, edges)
	}
	if c, e := OverlayMST(ap, nil); c != 0 || e != nil {
		t.Error("empty overlay not free")
	}
	if c, e := OverlayMST(ap, []topology.NodeID{3}); c != 0 || len(e) != 0 {
		t.Error("singleton overlay not free")
	}
}

func TestOverlayMSTAtLeastIdeal(t *testing.T) {
	// Overlay (unicast closure) MST can never beat the SPT cover from any
	// member, but must be ≥ the minimum Steiner cost; sanity-check ≥ cover/1
	// relationship loosely: overlay ≥ max pairwise distance.
	cfg := topology.Net100
	cfg.Seed = 4
	g, _ := topology.Generate(cfg)
	ap := NewAllPairs(g)
	r := rand.New(rand.NewSource(2))
	members := make([]topology.NodeID, 8)
	for i := range members {
		members[i] = topology.NodeID(r.Intn(g.NumNodes()))
	}
	cost, edges := OverlayMST(ap, members)
	if len(edges) != len(members)-1 {
		t.Fatalf("edges = %d", len(edges))
	}
	maxPair := 0.0
	for _, u := range members {
		for _, v := range members {
			if d := ap.Dist[u][v]; d > maxPair {
				maxPair = d
			}
		}
	}
	if cost < maxPair {
		t.Errorf("overlay cost %v < max pairwise distance %v", cost, maxPair)
	}
}

func TestOverlayMSTDisconnectedPanics(t *testing.T) {
	g := topology.NewGraph(3)
	g.AddEdge(0, 1, 1)
	ap := NewAllPairs(g)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	OverlayMST(ap, []topology.NodeID{0, 2})
}

func BenchmarkDijkstraEval600(b *testing.B) {
	cfg := topology.Eval600
	cfg.Seed = 1
	g, err := topology.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dijkstra(g, topology.NodeID(i%g.NumNodes()))
	}
}
