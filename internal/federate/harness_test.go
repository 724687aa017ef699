package federate

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// testCfg mirrors the broker/replicate suites so per-tile engines come
// out of the same clustering machinery.
var testCfg = core.Config{Groups: 25, CellBudget: 500}

// stockWorld builds the deterministic evaluation world the other suites
// use.
func stockWorld(t testing.TB, seed int64) *workload.World {
	t.Helper()
	topo := topology.Eval600
	topo.Seed = seed
	g, err := topology.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: 300, PubModes: 1, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// tileWorld restricts w to the subscriptions intersecting tile — the
// world one shard serves.
func tileWorld(t testing.TB, w *workload.World, tile space.Rect) *workload.World {
	t.Helper()
	tw, err := TileWorld(w, tile)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// tileEngine builds the decision engine one shard runs: the tile's
// subscription population clustered against the full training stream.
func tileEngine(t testing.TB, w *workload.World, tile space.Rect, train []workload.Event) (*core.Engine, *workload.World) {
	t.Helper()
	tw := tileWorld(t, w, tile)
	e, err := core.NewFromWorld(tw, train, testCfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, tw
}

// ekey fingerprints an event by identity, not seq: shard-local seqs are
// reused across failover incarnations, and the router's global seqs are
// an implementation detail the oracle should not depend on.
func ekey(ev workload.Event) string { return fmt.Sprintf("%d|%v", ev.Pub, ev.Point) }

// nk identifies one message copy: (node, event).
type nk struct {
	node topology.NodeID
	ev   string
}

// fedObs tallies the router's merged delivery stream.
type fedObs struct {
	mu  sync.Mutex
	all map[nk]int
}

func newFedObs() *fedObs { return &fedObs{all: map[nk]int{}} }

func (o *fedObs) cb() func(topology.NodeID, broker.Delivery) {
	return func(n topology.NodeID, d broker.Delivery) {
		k := nk{n, ekey(d.Event)}
		o.mu.Lock()
		o.all[k]++
		o.mu.Unlock()
	}
}

func (o *fedObs) count(n topology.NodeID, ev workload.Event) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.all[nk{n, ekey(ev)}]
}

func interestedNodes(w *workload.World, ev workload.Event) map[topology.NodeID]bool {
	out := map[topology.NodeID]bool{}
	for _, s := range w.Subs {
		if s.Rect.Contains(ev.Point) {
			out[s.Owner] = true
		}
	}
	return out
}

// checkExactlyOnce asserts the federated contract against the full
// world's brute-force match: every acked event reaches each interested
// node exactly once, unacked events at most once, and no (node, event)
// pair is ever delivered twice. A lost or doubled acked event is
// reported with the tile that owns it and r's counters, so a rare
// failure says which shard it went through.
func checkExactlyOnce(t *testing.T, w *workload.World, evs []workload.Event, acked []bool, o *fedObs, r *Router) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, ev := range evs {
		for n := range interestedNodes(w, ev) {
			got := o.all[nk{n, ekey(ev)}]
			if acked[i] && got != 1 {
				t.Errorf("acked event %d delivered %d times to interested node %d, want exactly 1 (owning tile %d, router %+v)",
					i, got, n, r.tiles.Owner(ev.Point), r.Stats())
			}
			if !acked[i] && got > 1 {
				t.Errorf("unacked event %d delivered %d times to node %d", i, got, n)
			}
		}
	}
	for k, c := range o.all {
		if c > 1 {
			t.Errorf("node %d received %q %d times (dedup failed)", k.node, k.ev, c)
		}
	}
}

// checkRoutedOnce asserts what single-owner routing implies when no
// shard fails: one decide per publish, and nothing for the merge to
// suppress or leave untranslated.
func checkRoutedOnce(t *testing.T, st Stats) {
	t.Helper()
	if st.Fanout != st.Published || st.Suppressed != 0 || st.Unmapped != 0 {
		t.Errorf("router %+v: want Fanout == Published, Suppressed == 0, Unmapped == 0", st)
	}
}

// fed is one in-process federation under test.
type fed struct {
	w       *workload.World
	train   []workload.Event
	tiles   Partition
	r       *Router
	brokers []*broker.Broker
	o       *fedObs
}

// startFed derives an n-tile partition over a stock world and attaches
// one in-process broker per tile.
func startFed(t *testing.T, seed int64, n int) *fed {
	t.Helper()
	w := stockWorld(t, seed)
	train := w.Events(800, seed+2)
	tiles, err := Derive(w, train, n)
	if err != nil {
		t.Fatal(err)
	}
	f := &fed{w: w, train: train, tiles: tiles, o: newFedObs()}
	f.r, err = NewRouter(Config{Tiles: tiles, Observer: f.o.cb()})
	if err != nil {
		t.Fatal(err)
	}
	for i, tile := range tiles {
		e, _ := tileEngine(t, w, tile, train)
		b, err := broker.New(e, broker.WithWorkers(2), broker.WithObserver(f.r.ShardObserver(i)))
		if err != nil {
			t.Fatal(err)
		}
		f.brokers = append(f.brokers, b)
		if err := f.r.Attach(i, b); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { f.r.Close() })
	return f
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
