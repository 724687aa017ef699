package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/noloss"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestDecisionGolden pins every delivery decision on the daemon's default
// world (cmd/pubsub-server with its flag defaults: Eval600 topology seed 1,
// 1 000 stock subscriptions, 2 000 training events) for three
// configurations: the daemon's Forgy K = 100 over 6 000 cells, the same
// clustering under the Fig 5 threshold plus the dynamic method choice, and
// No-Loss (-alg noloss). Each case hashes (Method, Group, Interested,
// Remainder) over 2 000 events. Half way through, 200 subscriptions of a
// second world join without a Refresh, so the second half also asks about
// interested nodes the routed group lacks (unicast top-up) and about
// subscribers unknown to the groups' world. The hashes were recorded when
// sparse groups still answered membership through a compressed mirror, so
// any change to how the decider represents or tests group membership that
// moves a single decision fails here.
//
// The decisions run on one goroutine, so the race detector has nothing to
// check and would only stretch the ~4 s No-Loss build about sevenfold.
func TestDecisionGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine decisions; see the uninstrumented run")
	}
	topo := topology.Eval600
	topo.Seed = 1
	g, err := topology.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: 1000,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         1,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	train := w.Events(2000, 3)
	evs := w.Events(2000, 4)
	joiners, err := workload.NewStockWorld(g, workload.StockConfig{NumSubscriptions: 200, PubModes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"forgy", Config{Groups: 100, CellBudget: 6000}, 0xc7c7ae2bbd77b452},
		{"forgy-threshold-dynamic", Config{Groups: 100, CellBudget: 6000, Threshold: 0.3, DynamicMethod: true}, 0xfb45ce3013f2ae6},
		{"noloss", Config{Groups: 100, NoLoss: &noloss.Config{PoolSize: 5000, Iterations: 8}}, 0x4085efbb6cbfefb6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewFromWorld(w, train, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf []byte
			put := func(v int64) { buf = binary.AppendVarint(buf, v) }
			multicasts, topped := 0, 0
			for i, ev := range evs {
				if i == len(evs)/2 {
					for _, s := range joiners.Subs {
						if _, err := e.AddSubscription(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				d := decide(t, e, ev)
				buf = buf[:0]
				put(int64(d.Method))
				put(int64(d.Group))
				put(int64(len(d.Interested)))
				for _, n := range d.Interested {
					put(int64(n))
				}
				put(int64(len(d.Remainder)))
				for _, n := range d.Remainder {
					put(int64(n))
				}
				h.Write(buf)
				if d.Group >= 0 {
					multicasts++
				}
				if len(d.Remainder) > 0 {
					topped++
				}
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("decision hash %#x, want %#x (%d group deliveries, %d with unicast top-up)", got, c.want, multicasts, topped)
			}
		})
	}
}
