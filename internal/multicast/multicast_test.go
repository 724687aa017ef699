package multicast

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

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

func TestMethodString(t *testing.T) {
	cases := map[Method]string{
		Unicast:           "unicast",
		Broadcast:         "broadcast",
		Ideal:             "ideal",
		NetworkMulticast:  "network-multicast",
		AppLevelMulticast: "app-level-multicast",
		Method(99):        "Method(99)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}

func TestUnicastCost(t *testing.T) {
	m := NewModel(lineGraph(t, 5))
	// From node 0 to {1, 3, 3}: 1 + 3 + 3 (repeats charged).
	got := m.UnicastCost(0, []topology.NodeID{1, 3, 3})
	if got != 7 {
		t.Errorf("UnicastCost = %v, want 7", got)
	}
	if m.UnicastCost(0, nil) != 0 {
		t.Error("empty unicast not free")
	}
	if m.UnicastCost(2, []topology.NodeID{2}) != 0 {
		t.Error("self delivery not free")
	}
}

func TestBroadcastCost(t *testing.T) {
	m := NewModel(lineGraph(t, 5))
	if got := m.BroadcastCost(0); got != 4 {
		t.Errorf("BroadcastCost = %v, want 4", got)
	}
	// Broadcast from the middle uses the same tree edges.
	if got := m.BroadcastCost(2); got != 4 {
		t.Errorf("BroadcastCost(2) = %v, want 4", got)
	}
}

func TestSPTCoverCost(t *testing.T) {
	m := NewModel(lineGraph(t, 6))
	// Cover {2, 4} from 0: edges 0-1,1-2,2-3,3-4 = 4 (shared prefix once).
	if got := m.SPTCoverCost(0, []topology.NodeID{2, 4}); got != 4 {
		t.Errorf("cover = %v, want 4", got)
	}
	// Ideal ≤ unicast always.
	if m.SPTCoverCost(0, []topology.NodeID{2, 4}) > m.UnicastCost(0, []topology.NodeID{2, 4}) {
		t.Error("cover exceeds unicast")
	}
}

func TestDistMatchesSPT(t *testing.T) {
	cfg := topology.Net100
	cfg.Seed = 8
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(g)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		u := topology.NodeID(r.Intn(g.NumNodes()))
		v := topology.NodeID(r.Intn(g.NumNodes()))
		if math.Abs(m.Dist(u, v)-m.Dist(v, u)) > 1e-9 {
			t.Fatalf("Dist asymmetric for %d,%d", u, v)
		}
	}
}

func TestBuildOverlayLine(t *testing.T) {
	m := NewModel(lineGraph(t, 5))
	o := m.BuildOverlay([]topology.NodeID{0, 2, 4})
	if o.TreeCost != 4 {
		t.Errorf("overlay TreeCost = %v, want 4", o.TreeCost)
	}
	if len(o.Edges) != 2 {
		t.Errorf("overlay edges = %v", o.Edges)
	}
	// Member list must be a copy.
	in := []topology.NodeID{1, 3}
	o2 := m.BuildOverlay(in)
	in[0] = 99
	if o2.Members[0] != 1 {
		t.Error("overlay aliases caller slice")
	}
}

func TestALMCost(t *testing.T) {
	m := NewModel(lineGraph(t, 5))
	o := m.BuildOverlay([]topology.NodeID{2, 4})
	// Overlay tree cost 2; publisher 0 enters via node 2 (dist 2) → 4.
	if got := m.ALMCost(0, o); got != 4 {
		t.Errorf("ALMCost = %v, want 4", got)
	}
	// Publisher inside the group pays only the tree.
	if got := m.ALMCost(2, o); got != 2 {
		t.Errorf("ALMCost member = %v, want 2", got)
	}
	if got := m.ALMCost(0, Overlay{}); got != 0 {
		t.Errorf("empty overlay cost = %v", got)
	}
	single := m.BuildOverlay([]topology.NodeID{3})
	if got := m.ALMCost(0, single); got != 3 {
		t.Errorf("singleton overlay cost = %v, want 3", got)
	}
}

func TestALMCostlierThanNetworkMulticastOnAverage(t *testing.T) {
	// App-level multicast pays unicast path costs between overlay members,
	// so on average it is more expensive than dense-mode network multicast
	// for the same group — the paper's plots show exactly this gap. (A
	// single event can go either way: the overlay MST is unconstrained
	// while the SPT cover must follow publisher-rooted shortest paths.)
	cfg := topology.Eval600
	cfg.Seed = 2
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(g)
	r := rand.New(rand.NewSource(7))
	var netTotal, almTotal float64
	for trial := 0; trial < 60; trial++ {
		k := 2 + r.Intn(20)
		members := make([]topology.NodeID, 0, k)
		seen := map[topology.NodeID]bool{}
		for len(members) < k {
			v := topology.NodeID(r.Intn(g.NumNodes()))
			if !seen[v] {
				seen[v] = true
				members = append(members, v)
			}
		}
		pub := topology.NodeID(r.Intn(g.NumNodes()))
		netTotal += m.SPTCoverCost(pub, members)
		almTotal += m.ALMCost(pub, m.BuildOverlay(members))
	}
	if almTotal < netTotal {
		t.Fatalf("average ALM %v < average network multicast %v", almTotal, netTotal)
	}
}

func TestCostOrderingInvariants(t *testing.T) {
	// ideal ≤ network multicast to any superset; ideal ≤ broadcast.
	cfg := topology.Net100
	cfg.Seed = 11
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(g)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		pub := topology.NodeID(r.Intn(g.NumNodes()))
		var interested, superset []topology.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			if r.Float64() < 0.1 {
				interested = append(interested, topology.NodeID(i))
				superset = append(superset, topology.NodeID(i))
			} else if r.Float64() < 0.1 {
				superset = append(superset, topology.NodeID(i))
			}
		}
		ideal := m.SPTCoverCost(pub, interested)
		super := m.SPTCoverCost(pub, superset)
		if ideal > super+1e-9 {
			t.Fatalf("ideal %v > superset cover %v", ideal, super)
		}
		if ideal > m.BroadcastCost(pub)+1e-9 {
			t.Fatalf("ideal %v > broadcast %v", ideal, m.BroadcastCost(pub))
		}
		if ideal > m.UnicastCost(pub, interested)+1e-9 {
			t.Fatalf("ideal %v > unicast %v", ideal, m.UnicastCost(pub, interested))
		}
	}
}

func testGraph(t *testing.T, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.Net100
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestViewMatchesModel: every cost query on a View must be bit-identical
// to an independent Model over the same graph — the property the snapshot
// decision plane's determinism rests on — and a view must share its
// parent's trees rather than recompute them.
func TestViewMatchesModel(t *testing.T) {
	g := testGraph(t, 500)
	m := NewModel(g)
	parent := NewModel(g)
	v := parent.View()
	rng := rand.New(rand.NewSource(501))
	n := g.NumNodes()

	randNodes := func(k int) []topology.NodeID {
		out := make([]topology.NodeID, k)
		for i := range out {
			out[i] = topology.NodeID(rng.Intn(n))
		}
		return out
	}

	for trial := 0; trial < 200; trial++ {
		u := topology.NodeID(rng.Intn(n))
		w := topology.NodeID(rng.Intn(n))
		if m.Dist(u, w) != v.Dist(u, w) {
			t.Fatalf("Dist(%d,%d): model %v, view %v", u, w, m.Dist(u, w), v.Dist(u, w))
		}
		if m.BroadcastCost(u) != v.BroadcastCost(u) {
			t.Fatalf("BroadcastCost(%d) diverged", u)
		}
		targets := randNodes(1 + rng.Intn(12))
		if mc, vc := m.SPTCoverCost(u, targets), v.SPTCoverCost(u, targets); mc != vc {
			t.Fatalf("SPTCoverCost(%d, %v): model %v, view %v", u, targets, mc, vc)
		}
		o := m.BuildOverlay(randNodes(2 + rng.Intn(8)))
		if mc, vc := m.ALMCost(u, o), v.ALMCost(u, o); mc != vc {
			t.Fatalf("ALMCost(%d): model %v, view %v", u, mc, vc)
		}
		if v.SPT(u) != parent.SPT(u) {
			t.Fatalf("view and parent hold different trees for root %d", u)
		}
	}

	// Degenerate overlays.
	if v.ALMCost(0, Overlay{}) != 0 {
		t.Error("empty overlay not free")
	}
	root := Overlay{Members: []topology.NodeID{3}, TreeCost: 0}
	if m.ALMCost(3, root) != v.ALMCost(3, root) {
		t.Error("self-membership overlay diverged")
	}
}

// TestViewsConcurrentFill: many views racing to fill the same roots must
// agree on the resulting trees (run under -race this also proves the CAS
// publication is clean).
func TestViewsConcurrentFill(t *testing.T) {
	g := testGraph(t, 502)
	m := NewModel(g)
	n := g.NumNodes()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			view := m.View()
			for i := 0; i < 200; i++ {
				root := topology.NodeID(rng.Intn(n))
				spt := view.SPT(root)
				if spt.Root != root {
					t.Errorf("SPT root %d, want %d", spt.Root, root)
					return
				}
				view.SPTCoverCost(root, []topology.NodeID{topology.NodeID(rng.Intn(n))})
			}
		}(int64(503 + w))
	}
	wg.Wait()

	// After the dust settles every root resolves to one stable tree.
	for i := 0; i < n; i++ {
		root := topology.NodeID(i)
		if m.SPT(root) != m.SPT(root) {
			t.Fatalf("root %d not cached stably", root)
		}
	}
}

func TestQuickCoverMonotone(t *testing.T) {
	cfg := topology.Net100
	cfg.Seed = 13
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(g)
	law := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pub := topology.NodeID(r.Intn(g.NumNodes()))
		var small, big []topology.NodeID
		for i := 0; i < g.NumNodes(); i++ {
			p := r.Float64()
			if p < 0.05 {
				small = append(small, topology.NodeID(i))
			}
			if p < 0.15 {
				big = append(big, topology.NodeID(i))
			}
		}
		return m.SPTCoverCost(pub, small) <= m.SPTCoverCost(pub, big)+1e-9
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
