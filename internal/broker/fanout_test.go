package broker

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
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
