package broker

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// fullRect spans the whole event space in every dimension.
func fullRect(dim int) space.Rect {
	r := make(space.Rect, dim)
	for d := range r {
		r[d] = space.Full()
	}
	return r
}

// nonSubscriber returns a node with no subscription at world build time —
// the broker has no node state for it, so subscribing it exercises the
// dynamic route-table growth (the old broker froze the table at New and
// would nil-deref).
func nonSubscriber(t *testing.T, e *core.Engine, w *workload.World) topology.NodeID {
	t.Helper()
	for n := 0; n < e.Model().Graph().NumNodes(); n++ {
		if _, ok := w.SubscriberIndex(topology.NodeID(n)); !ok {
			return topology.NodeID(n)
		}
	}
	t.Fatal("every node subscribes; cannot test churn onto a fresh node")
	return 0
}

// TestChurnNeverLose is the churn chaos test: a subscriber joins and
// leaves the live broker dozens of times while events flow, with
// concurrent background churn and publishing for race coverage. The
// invariant is the paper's never-lose rule made bidirectional:
//
//   - every event published while the subscription was live (Subscribe
//     returned, Unsubscribe not yet called) is delivered to the subscriber
//     exactly once;
//   - no event published after Unsubscribe returned is delivered to it.
//
// The run must also cross ≥ 100 snapshot swaps so the invariant is proven
// across swaps, not within one snapshot's lifetime.
func TestChurnNeverLose(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 20, CellBudget: 400}, 300)
	churnNode := nonSubscriber(t, e, w)
	sub := workload.Subscription{Owner: churnNode, Rect: fullRect(w.Dim)}

	const cycles = 60
	const perPhase = 3
	events := w.Events(cycles*2*perPhase, 301)
	// Tag events by pointer identity of their point slice.
	index := map[*float64]int{}
	for i := range events {
		index[&events[i].Point[0]] = i
	}

	var mu sync.Mutex
	got := make([]int, len(events)) // deliveries of event i to churnNode
	b, err := New(e, WithWorkers(4), WithObserver(func(n topology.NodeID, d Delivery) {
		if n != churnNode {
			return
		}
		// Only phase-tagged events count; background stress events also
		// reach the churn node while it is subscribed.
		i, ok := index[&d.Event.Point[0]]
		if !ok {
			return
		}
		mu.Lock()
		got[i]++
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}

	// Background stress: concurrent churn of other subscriptions plus a
	// concurrent publisher of unrelated events, racing the main loop.
	stressEvents := w.Events(600, 302)
	stop := make(chan struct{})
	var stressWG sync.WaitGroup
	stressWG.Add(2)
	go func() {
		defer stressWG.Done()
		rng := rand.New(rand.NewSource(303))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := w.Subs[rng.Intn(len(w.Subs))]
			slot, err := b.Subscribe(s)
			if err != nil {
				t.Errorf("stress subscribe: %v", err)
				return
			}
			if err := b.Unsubscribe(slot); err != nil {
				t.Errorf("stress unsubscribe: %v", err)
				return
			}
		}
	}()
	go func() {
		defer stressWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := b.Publish(stressEvents[i%len(stressEvents)]); err != nil {
				t.Errorf("stress publish: %v", err)
				return
			}
		}
	}()

	expect := make([]int, len(events))
	next := 0
	for cycle := 0; cycle < cycles; cycle++ {
		slot, err := b.Subscribe(sub)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perPhase; i++ {
			expect[next] = 1
			if err := b.Publish(events[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := b.Unsubscribe(slot); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perPhase; i++ {
			expect[next] = 0
			if err := b.Publish(events[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	close(stop)
	stressWG.Wait()
	b.Close()

	for i := range events {
		if got[i] != expect[i] {
			t.Fatalf("event %d: delivered %d times to churn node, want %d", i, got[i], expect[i])
		}
	}
	st := b.Stats()
	if st.SnapshotSwaps < 100 {
		t.Fatalf("only %d snapshot swaps; the invariant was not exercised across ≥ 100 swaps", st.SnapshotSwaps)
	}
	if st.Subscribes < cycles || st.Unsubscribes < cycles {
		t.Fatalf("churn counters %d/%d, want ≥ %d each", st.Subscribes, st.Unsubscribes, cycles)
	}
	// The dynamically grown per-node counter covers at least the tagged
	// phase-A deliveries (background stress events add more while the
	// churn subscription is live).
	if st.PerNode[churnNode] < int64(cycles*perPhase) {
		t.Fatalf("churn node counter = %d, want ≥ %d", st.PerNode[churnNode], cycles*perPhase)
	}
}

// TestChurnValidation: churn API error paths, including after Close.
func TestChurnValidation(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 5, CellBudget: 200}, 310)
	b, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe(workload.Subscription{Owner: 0, Rect: fullRect(w.Dim + 2)}); err == nil {
		t.Error("bad-dimension subscription accepted")
	}
	if err := b.Unsubscribe(99999); err == nil {
		t.Error("bogus slot unsubscribed")
	}
	slot, err := b.Subscribe(w.Subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(slot); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe(slot); err == nil {
		t.Error("double unsubscribe accepted")
	}
	b.Close()
	if _, err := b.Subscribe(w.Subs[0]); err != ErrClosed {
		t.Errorf("subscribe after close: %v, want ErrClosed", err)
	}
	if err := b.Unsubscribe(0); err != ErrClosed {
		t.Errorf("unsubscribe after close: %v, want ErrClosed", err)
	}
}

// TestDecideWorkerEquivalence: the same workload through 1, 2 and 4
// decision workers must produce identical decisions per sequence number —
// sharding the decision plane may reorder work but never change it.
func TestDecideWorkerEquivalence(t *testing.T) {
	events := (*[]workload.Event)(nil)
	runs := map[int]map[int64]core.Decision{}
	for _, workers := range []int{1, 2, 4} {
		e, w := testEngine(t, core.Config{
			Groups: 20, CellBudget: 400, DynamicMethod: true,
		}, 320) // same seed every run ⇒ identical engines
		if events == nil {
			evs := w.Events(300, 321)
			events = &evs
		}
		var mu sync.Mutex
		decisions := map[int64]core.Decision{}
		b, err := New(e, WithDecideWorkers(workers),
			WithDecisionObserver(func(seq int64, ev workload.Event, d core.Decision, c core.Costs) {
				mu.Lock()
				decisions[seq] = d
				mu.Unlock()
			}))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range *events {
			if err := b.Publish(ev); err != nil {
				t.Fatal(err)
			}
		}
		b.Close()
		if len(decisions) != len(*events) {
			t.Fatalf("workers=%d: observed %d decisions, want %d", workers, len(decisions), len(*events))
		}
		runs[workers] = decisions
	}
	for _, workers := range []int{2, 4} {
		for seq, want := range runs[1] {
			if got := runs[workers][seq]; !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d seq %d:\nserial  %+v\nsharded %+v", workers, seq, want, got)
			}
		}
	}
}

// TestRequestRefreshLatestWins: a refresh request queued behind another
// must replace it — the old non-blocking send silently kept the stale
// WarmIters value.
func TestRequestRefreshLatestWins(t *testing.T) {
	b := &Broker{refreshCh: make(chan int, 1)}
	b.requestRefresh(3)
	b.requestRefresh(7) // channel full: must drain the 3 and queue the 7
	select {
	case got := <-b.refreshCh:
		if got != 7 {
			t.Fatalf("writer would see WarmIters = %d, want 7 (latest)", got)
		}
	default:
		t.Fatal("no refresh request queued")
	}
	if len(b.refreshCh) != 0 {
		t.Fatal("stale request left behind")
	}
}

// TestSnapshotVersionVisible: snapshot bookkeeping surfaces through the
// public accessors and advances under churn.
func TestSnapshotVersionVisible(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 5, CellBudget: 200}, 330)
	b, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	v0 := b.SnapshotVersion()
	slot, err := b.Subscribe(w.Subs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v1 := b.SnapshotVersion(); v1 <= v0 {
		t.Fatalf("version %d → %d after subscribe", v0, v1)
	}
	if err := b.Unsubscribe(slot); err != nil {
		t.Fatal(err)
	}
	b.Close()
	if got := b.Stats().SnapshotSwaps; got < 2 {
		t.Fatalf("SnapshotSwaps = %d, want ≥ 2", got)
	}
}

func BenchmarkPublishDecide(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("decideWorkers=%d", workers), func(b *testing.B) {
			topo := topology.Eval600
			topo.Seed = 340
			g, err := topology.Generate(topo)
			if err != nil {
				b.Fatal(err)
			}
			w, err := workload.NewStockWorld(g, workload.StockConfig{
				NumSubscriptions: 300, PubModes: 1, Seed: 341,
			})
			if err != nil {
				b.Fatal(err)
			}
			e, err := core.NewFromWorld(w, w.Events(800, 342), core.Config{
				Groups: 20, CellBudget: 400, DynamicMethod: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			br, err := New(e, WithDecideWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			evs := w.Events(2048, 343)
			// Warm-up pass: every distinct publisher root fills its shared
			// SPT (and the workers their coverers) lazily on first use;
			// publish each event once and drain so the timed region measures
			// steady state, which the decide plane keeps allocation-free.
			for _, ev := range evs {
				if err := br.Publish(ev); err != nil {
					b.Fatal(err)
				}
			}
			for br.Stats().Published < int64(len(evs)) {
				time.Sleep(time.Millisecond)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish(evs[i%len(evs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			br.Close()
		})
	}
}
