package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/multicast"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// big1M caches the million-subscriber engine across the benchmark's worker
// sub-runs: the setup (topology generation, R*-tree bulk insert, grid
// rasterisation, clustering) dominates a single build by minutes and is
// identical for every worker count.
var big1M struct {
	once sync.Once
	eng  *core.Engine
	evs  []workload.Event
	err  error
	subs int
}

// sink1M keeps the compiler from eliding decision work.
var sink1M int64

// setupBig1M builds a world with one subscription per stub node:
// 1,048,576 subscribers at full scale, 65,536 under -short (the CI smoke
// scale). Every subscription covers exactly one cell of a 64×64 grid, so
// an event matches ≈ subs/4096 · (0.8)² subscriptions — a dense enough hit
// list to exercise the sort/compact path, sparse enough that group
// membership vectors stay in compressed form.
//
// DynamicMethod is off: the static decide path never prices routes, so the
// benchmark needs no shortest-path trees over the million-node graph.
func setupBig1M(b *testing.B) (*core.Engine, []workload.Event, int) {
	big1M.once.Do(func() {
		topo := topology.Config{
			TransitBlocks: 8, TransitPerBlock: 32,
			StubsPerTransit: 64, NodesPerStub: 64,
			// The generator's redundant-edge pass is quadratic per stub;
			// thin it out so a 16k-stub network builds in seconds.
			ExtraEdgeProb: 0.02,
			Seed:          400,
		}
		if testing.Short() {
			topo.TransitBlocks, topo.TransitPerBlock = 4, 16
			topo.StubsPerTransit, topo.NodesPerStub = 16, 64
		}
		g, err := topology.Generate(topo)
		if err != nil {
			big1M.err = err
			return
		}

		const cells = 64 // per axis; 64×64 = 4096 grid cells
		axes := []space.Axis{
			{Lo: 0, Hi: 1, Cells: cells},
			{Lo: 0, Hi: 1, Cells: cells},
		}
		rng := rand.New(rand.NewSource(401))
		var subs []workload.Subscription
		for n := 0; n < g.NumNodes(); n++ {
			id := topology.NodeID(n)
			if g.Node(id).Kind != topology.StubNode {
				continue
			}
			// One cell per subscription, inset 10% so rectangle edges never
			// rasterise into a neighbouring cell.
			ci := float64(rng.Intn(cells))
			cj := float64(rng.Intn(cells))
			subs = append(subs, workload.Subscription{
				Owner: id,
				Rect: space.Rect{
					{Lo: (ci + 0.1) / cells, Hi: (ci + 0.9) / cells},
					{Lo: (cj + 0.1) / cells, Hi: (cj + 0.9) / cells},
				},
			})
		}
		w, err := workload.NewCustomWorld(g, axes, subs)
		if err != nil {
			big1M.err = err
			return
		}
		e, err := core.NewFromWorld(w, w.Events(4096, 402), core.Config{
			Groups: 32, CellBudget: 512, DynamicMethod: false,
		})
		if err != nil {
			big1M.err = err
			return
		}
		big1M.eng = e
		big1M.evs = w.Events(8192, 403)
		big1M.subs = len(subs)
	})
	if big1M.err != nil {
		b.Fatal(big1M.err)
	}
	return big1M.eng, big1M.evs, big1M.subs
}

// BenchmarkPublishDecide1M measures the decide plane at a million
// subscribers: concurrent workers, each with its own SPT view and reused
// DecideScratch, draining a shared event feed through
// DecisionSnapshot.DecideInto — exactly what the broker's decision workers
// run, minus the fan-out stage (whose workers accept every copy inline,
// so a full Broker's goroutines do not grow with subscriber nodes). Run it via `make bench-1m`;
// -short drops to 65,536 subscribers for the CI smoke.
func BenchmarkPublishDecide1M(b *testing.B) {
	eng, evs, subs := setupBig1M(b)
	snap := eng.Snapshot()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("decideWorkers=%d", workers), func(b *testing.B) {
			views := make([]*multicast.Model, workers)
			scratches := make([]*core.DecideScratch, workers)
			for i := range views {
				views[i] = eng.NewSPTView()
				scratches[i] = &core.DecideScratch{}
				// Warm each worker's scratch to steady-state capacity so the
				// timed region stays allocation-free.
				for _, ev := range evs[:64] {
					snap.DecideInto(ev, views[i], scratches[i])
				}
			}
			b.ReportMetric(float64(subs), "subs")
			b.ReportAllocs()
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			const chunk = 256
			for wk := 0; wk < workers; wk++ {
				wg.Add(1)
				go func(wk int) {
					defer wg.Done()
					view, sc := views[wk], scratches[wk]
					var local int64
					for {
						start := next.Add(chunk) - chunk
						if start >= int64(b.N) {
							break
						}
						end := start + chunk
						if end > int64(b.N) {
							end = int64(b.N)
						}
						for i := start; i < end; i++ {
							d := snap.DecideInto(evs[i%int64(len(evs))], view, sc)
							local += int64(len(d.MatchedSubs)) + int64(d.Group)
						}
					}
					atomic.AddInt64(&sink1M, local)
				}(wk)
			}
			wg.Wait()
		})
	}
}
