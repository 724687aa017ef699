package broker

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// statsVector flattens the cumulative Stats counters for ordering checks.
func statsVector(st Stats) []int64 {
	return []int64{
		st.Published, st.Multicast, st.Unicast, st.Broadcast,
		st.Deliveries, st.Wasted, st.Deduped,
		st.Subscribes, st.Unsubscribes, st.SnapshotSwaps,
	}
}

var statsVectorNames = []string{
	"Published", "Multicast", "Unicast", "Broadcast",
	"Deliveries", "Wasted", "Deduped",
	"Subscribes", "Unsubscribes", "SnapshotSwaps",
}

// TestStatsConcurrentMonotone hammers Stats() from several goroutines
// while a durable broker recovers a crashed incarnation's journal tail
// (its dedup windows suppressing the copies that had already arrived),
// takes live churn and publishes new events, and asserts that every
// snapshot a reader takes is component-wise monotone: cumulative counters
// never run backwards. Under -race this also proves snapshotting is safe
// against the delivery hot path and the writer.
func TestStatsConcurrentMonotone(t *testing.T) {
	cfg := core.Config{Groups: 20, CellBudget: 400}
	const seed = 230
	dir := t.TempDir()

	// Incarnation 1 journals publishes and their ack records until the
	// store dies; no checkpoint truncates the journal, so the next
	// incarnation redelivers every publish in it.
	e1, w := testEngine(t, cfg, seed)
	crash := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 200, Point: faults.CrashAfterAppend})
	b1, err := Open(dir, e1, WithWorkers(2), WithDurableOptions(noAutoCkpt(crash)))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events(150, seed+1) {
		if err := b1.Publish(ev); errors.Is(err, faults.ErrCrashed) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	b1.Close()

	// Incarnation 2: readers start as soon as Open returns, while the
	// recovery redelivery is still draining.
	e2, _ := testEngine(t, cfg, seed)
	b, err := Open(dir, e2, WithWorkers(4), WithDurableOptions(noAutoCkpt(nil)))
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			prev := statsVector(b.Stats())
			for {
				select {
				case <-done:
					return
				default:
				}
				cur := statsVector(b.Stats())
				for i := range cur {
					if cur[i] < prev[i] {
						t.Errorf("stats counter %s ran backwards: %d -> %d",
							statsVectorNames[i], prev[i], cur[i])
						return
					}
				}
				prev = cur
			}
		}()
	}

	evs := w.Events(100, seed+2)
	for i, ev := range evs {
		if i%4 == 0 {
			slot, err := b.Subscribe(w.Subs[i%len(w.Subs)])
			if err != nil {
				t.Fatal(err)
			}
			if i%8 == 0 {
				if err := b.Unsubscribe(slot); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	st := b.Stats()
	if st.Deduped == 0 || st.Deliveries == 0 || st.Subscribes == 0 {
		t.Errorf("deduped %d, deliveries %d, subscribes %d: the run exercised too little",
			st.Deduped, st.Deliveries, st.Subscribes)
	}
}
