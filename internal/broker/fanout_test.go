package broker

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/workload"
)

// TestGoroutinesIndependentOfNodes: fan-out workers accept every copy
// inline, so a broker's goroutines are its decision workers, fan-out
// workers and writer — none per subscriber node.
func TestGoroutinesIndependentOfNodes(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 970)
	before := runtime.NumGoroutine()
	b, err := New(e, WithWorkers(2), WithDecideWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	added := runtime.NumGoroutine() - before
	for _, ev := range w.Events(50, 971) {
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if added > 6 {
		t.Errorf("New added %d goroutines for %d subscriber nodes, want ≤ 6", added, len(w.SubscriberNodes))
	}
	if b.Stats().Deliveries == 0 {
		t.Error("no deliveries: the broker did not run")
	}
}

// countingTap is a durable.Tap that counts replication barriers and
// releases every one at once.
type countingTap struct{ barriers atomic.Int64 }

func (c *countingTap) AppendRecord(int64, []byte) {}
func (c *countingTap) Rotate(int64)               {}
func (c *countingTap) Checkpoint(int64, []byte)   {}
func (c *countingTap) Barrier(int64) error {
	c.barriers.Add(1)
	return nil
}

// TestAckBarrierOncePerEvent: a durable broker behind a replication tap
// waits out one ack barrier per event, not one per delivered copy.
func TestAckBarrierOncePerEvent(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 25, CellBudget: 500}, 980)
	tap := &countingTap{}
	opts := noAutoCkpt(nil)
	opts.Tap = tap
	var copies atomic.Int64
	b, err := Open(t.TempDir(), e, WithWorkers(2), WithDurableOptions(opts),
		WithObserver(func(topology.NodeID, Delivery) { copies.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	const events = 50
	for _, ev := range w.Events(events, 981) {
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if copies.Load() <= events {
		t.Fatalf("%d copies for %d events: too few to tell per-copy from per-event barriers", copies.Load(), events)
	}
	// One barrier per publish, at most one per event's acks, and one for
	// the clean-shutdown checkpoint Close commits.
	if got, limit := tap.barriers.Load(), int64(events+events+1); got > limit {
		t.Errorf("%d barriers for %d events and %d copies, want ≤ %d", got, events, copies.Load(), limit)
	}
}

// TestAcksOneRecordPerEvent: a durable broker journals one ack record per
// event, naming every node the event reached, not one record per copy —
// so the journal holds each publish record plus one ack record for every
// event that had a copy.
func TestAcksOneRecordPerEvent(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 25, CellBudget: 500}, 985)
	var mu sync.Mutex
	perSeq := map[int64]int{}
	b, err := Open(t.TempDir(), e, WithWorkers(2), WithDurableOptions(noAutoCkpt(nil)),
		WithObserver(func(_ topology.NodeID, d Delivery) {
			mu.Lock()
			perSeq[d.Seq]++
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	const events = 60
	for _, ev := range w.Events(events, 986) {
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	// Close drains the fan-out; its checkpoint appends no record, since
	// no publish is in flight by then.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, c := range perSeq {
		copies += c
	}
	if copies <= 2*len(perSeq) {
		t.Fatalf("%d copies over %d events: too few to tell per-copy from per-event records", copies, len(perSeq))
	}
	appends := b.Telemetry().Snapshot()["durable"].Counters["journal_appends"]
	if want := int64(events + len(perSeq)); appends != want {
		t.Errorf("journal_appends = %d for %d publishes, %d events with copies and %d copies; want %d",
			appends, events, len(perSeq), copies, want)
	}
}

// TestDurableAllocsFlatInCopies: on a durable broker, heap allocations per
// event do not grow with the event's copies. Every event reaches the
// subscribers added here, so the second broker delivers ~200 more copies
// per event than the first; the allocations each extra copy adds must
// stay far below one.
func TestDurableAllocsFlatInCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations inflate the counts")
	}
	const events = 100
	perEvent := func(extra int) (allocs, copies float64) {
		e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 990)
		var seen atomic.Int64
		b, err := Open(t.TempDir(), e, WithWorkers(2), WithDurableOptions(noAutoCkpt(nil)),
			WithObserver(func(topology.NodeID, Delivery) { seen.Add(1) }))
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		const rounds = 3
		evs := w.Events((1+rounds)*events, 991)
		all := coveringRect(w, evs)
		for n := 0; n < extra; n++ {
			if _, err := b.Subscribe(workload.Subscription{Owner: topology.NodeID(n), Rect: all}); err != nil {
				t.Fatal(err)
			}
		}
		run := func(evs []workload.Event) {
			for _, ev := range evs {
				if err := b.Publish(ev); err != nil {
					t.Fatal(err)
				}
			}
			waitFanout(b)
		}
		run(evs[:events]) // warm-up: worker scratch grows to its high-water mark
		// The least of a few rounds, so a stray runtime allocation burst
		// does not read as a per-copy cost.
		allocs = math.Inf(1)
		c0 := seen.Load()
		for r := 1; r <= rounds; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			run(evs[r*events : (r+1)*events])
			runtime.ReadMemStats(&m1)
			allocs = min(allocs, float64(m1.Mallocs-m0.Mallocs)/events)
		}
		return allocs, float64(seen.Load()-c0) / (rounds * events)
	}
	fewAllocs, fewCopies := perEvent(0)
	manyAllocs, manyCopies := perEvent(200)
	if manyCopies-fewCopies < 100 {
		t.Fatalf("copies per event %.1f vs %.1f: the added subscribers did not widen the fan-out", manyCopies, fewCopies)
	}
	t.Logf("%.1f allocs/event at %.1f copies/event, %.1f at %.1f", fewAllocs, fewCopies, manyAllocs, manyCopies)
	if slope := (manyAllocs - fewAllocs) / (manyCopies - fewCopies); slope > 0.1 {
		t.Errorf("%.1f allocs/event at %.1f copies/event, %.1f at %.1f: %.2f allocations per copy, want ≤ 0.1",
			fewAllocs, fewCopies, manyAllocs, manyCopies, slope)
	}
}

// waitFanout returns once every publish of durable broker b has finished
// its fan-out (its ack record appended and its copies observed).
func waitFanout(b *Broker) {
	for {
		busy := false
		b.dur.inflight.Range(func(any, any) bool {
			busy = true
			return false
		})
		if !busy {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// countFlusher counts its flushes and, at each, how many copies of its
// event the observer had seen.
type countFlusher struct {
	flushes  int
	seenThen int
	seen     *int
}

func (f *countFlusher) Flush() { f.flushes++; f.seenThen = *f.seen }

// TestFanoutFlushesHeld pins Delivery.Hold's contract: a flusher held
// inside the observer call is flushed once per Hold, on the fan-out
// worker, after the event's last copy was observed; Release flushes what
// is held at once and the fan-out's end does not flush it again; and a
// Delivery built outside a fan-out holds nothing.
func TestFanoutFlushesHeld(t *testing.T) {
	if (Delivery{}).Hold(&countFlusher{}) {
		t.Fatal("a Delivery built outside a fan-out accepted a hold")
	}
	(Delivery{}).Release() // must not panic

	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 975)
	type event struct {
		seen            int
		holds           int
		held, released  *countFlusher
		releasedFlushes int
	}
	var mu sync.Mutex
	events := map[int64]*event{}
	b, err := New(e, WithWorkers(2), WithObserver(func(n topology.NodeID, d Delivery) {
		mu.Lock()
		defer mu.Unlock()
		ev := events[d.Seq]
		if ev == nil {
			ev = &event{}
			ev.held = &countFlusher{seen: &ev.seen}
			ev.released = &countFlusher{seen: &ev.seen}
			events[d.Seq] = ev
			if !d.Hold(ev.released) {
				t.Error("Hold refused inside a fan-out")
			}
			d.Release()
			ev.releasedFlushes = ev.released.flushes
		}
		ev.seen++
		if d.Hold(ev.held) {
			ev.holds++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events(100, 976) {
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no deliveries: the broker did not run")
	}
	for seq, ev := range events {
		if ev.holds != ev.seen || ev.held.flushes != ev.holds {
			t.Errorf("seq %d: %d copies, %d holds, %d flushes; want all equal", seq, ev.seen, ev.holds, ev.held.flushes)
		}
		if ev.held.seenThen != ev.seen {
			t.Errorf("seq %d: flushed after %d of %d copies", seq, ev.held.seenThen, ev.seen)
		}
		if ev.releasedFlushes != 1 || ev.released.flushes != 1 {
			t.Errorf("seq %d: released flusher flushed %d times by Release, %d in all; want 1, 1", seq, ev.releasedFlushes, ev.released.flushes)
		}
	}
}
