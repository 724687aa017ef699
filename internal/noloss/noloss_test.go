package noloss

import (
	"math"
	"testing"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

func stockWorld(t *testing.T, subs int, seed int64) (*workload.World, []workload.Event) {
	t.Helper()
	cfg := topology.Eval600
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: subs, PubModes: 1, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, w.Events(1500, seed+2)
}

func TestConfigValidation(t *testing.T) {
	w, train := stockWorld(t, 50, 100)
	bad := []Config{
		{PoolSize: -1},
		{Iterations: -1},
		{Seeds: -2},
	}
	for i, cfg := range bad {
		if _, err := Build(w, train, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := Build(nil, train, Config{}); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := Build(w, nil, Config{}); err == nil {
		t.Error("empty training accepted")
	}
}

func TestBuildBasic(t *testing.T) {
	w, train := stockWorld(t, 200, 200)
	res, err := Build(w, train, Config{PoolSize: 500, Iterations: 4, Seeds: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups")
	}
	if len(res.Groups) > 500 {
		t.Fatalf("pool overflow: %d groups", len(res.Groups))
	}
	// Sorted by weight, non-increasing.
	for i := 1; i < len(res.Groups); i++ {
		if res.Groups[i].Weight > res.Groups[i-1].Weight+1e-12 {
			t.Fatalf("groups not weight-sorted at %d", i)
		}
	}
	for gi, g := range res.Groups {
		if g.Rect.Empty() {
			t.Fatalf("group %d has empty rect", gi)
		}
		if g.Members.Count() == 0 {
			t.Fatalf("group %d has no members", gi)
		}
		if w := g.Prob * float64(g.Members.Count()); math.Abs(w-g.Weight) > 1e-9 {
			t.Fatalf("group %d weight %v != p·|u| = %v", gi, g.Weight, w)
		}
	}
}

// TestNoLossInvariant is the defining property: every member of a group
// must have a subscription rectangle containing the whole group region —
// equivalently, every member is interested in every event in the region.
func TestNoLossInvariant(t *testing.T) {
	w, train := stockWorld(t, 300, 300)
	res, err := Build(w, train, Config{PoolSize: 800, Iterations: 6, Seeds: 48})
	if err != nil {
		t.Fatal(err)
	}
	// Precompute each subscriber's rectangles.
	rectsOf := map[int][]space.Rect{}
	for _, s := range w.Subs {
		idx, _ := w.SubscriberIndex(s.Owner)
		rectsOf[idx] = append(rectsOf[idx], s.Rect)
	}
	checked := 0
	for _, g := range res.Groups {
		ok := true
		g.Members.ForEach(func(i int) bool {
			contains := false
			for _, r := range rectsOf[i] {
				if r.ContainsRect(g.Rect) {
					contains = true
					break
				}
			}
			if !contains {
				ok = false
				return false
			}
			return true
		})
		if !ok {
			t.Fatalf("no-loss invariant violated for group rect %v", g.Rect)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestIterationsGrowMembership(t *testing.T) {
	// With intersections enabled, the top group should accumulate more
	// members than any single raw subscription owner set.
	w, train := stockWorld(t, 400, 400)
	zero, err := Build(w, train, Config{PoolSize: 1000, Iterations: 1, Seeds: 1})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Build(w, train, Config{PoolSize: 1000, Iterations: 8, Seeds: 64})
	if err != nil {
		t.Fatal(err)
	}
	maxZero, maxEight := 0, 0
	for _, g := range zero.Groups {
		if c := g.Members.Count(); c > maxZero {
			maxZero = c
		}
	}
	for _, g := range eight.Groups {
		if c := g.Members.Count(); c > maxEight {
			maxEight = c
		}
	}
	if maxEight < maxZero {
		t.Errorf("more refinement shrank max membership: %d vs %d", maxEight, maxZero)
	}
	if maxEight < 2 {
		t.Errorf("refinement never combined subscribers (max membership %d)", maxEight)
	}
}

func TestDeterministic(t *testing.T) {
	w, train := stockWorld(t, 150, 500)
	cfg := Config{PoolSize: 400, Iterations: 4, Seeds: 32}
	a, err := Build(w, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(w, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Groups) != len(b.Groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.Groups), len(b.Groups))
	}
	for i := range a.Groups {
		if !a.Groups[i].Rect.Equal(b.Groups[i].Rect) || !a.Groups[i].Members.Equal(b.Groups[i].Members) {
			t.Fatalf("group %d differs between runs", i)
		}
	}
}

func TestDuplicateSubscriptionsMerge(t *testing.T) {
	// Hand-build a tiny world where three subscribers share one rectangle:
	// the seed pool must merge them into a single region with |u| = 3.
	cfg := topology.Net100
	cfg.Seed = 7
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{NumSubscriptions: 3, PubModes: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	shared := space.Rect{space.Span(0, 1), space.Span(0, 10), space.Span(0, 10), space.Span(0, 10)}
	hostA, hostB := w.SubscriberNodes[0], w.SubscriberNodes[len(w.SubscriberNodes)-1]
	w.Subs = []workload.Subscription{
		{Owner: hostA, Rect: shared},
		{Owner: hostB, Rect: shared},
		{Owner: hostA, Rect: shared},
	}
	train := []workload.Event{{Pub: hostA, Point: space.Point{0.5, 5, 5, 5}}}
	res, err := Build(w, train, Config{PoolSize: 10, Iterations: 2, Seeds: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(res.Groups))
	}
	if got := res.Groups[0].Members.Count(); got != 2 {
		t.Fatalf("members = %d, want 2 distinct subscriber nodes", got)
	}
	if res.Groups[0].Prob != 1 {
		t.Fatalf("prob = %v, want 1", res.Groups[0].Prob)
	}
}

func TestPoolSizeRespected(t *testing.T) {
	w, train := stockWorld(t, 500, 700)
	for _, n := range []int{10, 50, 200} {
		res, err := Build(w, train, Config{PoolSize: n, Iterations: 3, Seeds: 16})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) > n {
			t.Errorf("PoolSize %d produced %d groups", n, len(res.Groups))
		}
	}
}
