package broker

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/topology"
	"repro/internal/workload"
)

// matches reports whether any subscription matches the event — events with
// no interested subscriber produce zero deliveries, so delivery accounting
// must exclude them.
func matches(w *workload.World, ev workload.Event) bool {
	for _, s := range w.Subs {
		if s.Rect.Contains(ev.Point) {
			return true
		}
	}
	return false
}

// mustHealth builds a health subsystem or fails the test.
func mustHealth(t *testing.T, hc health.Config) *health.Health {
	t.Helper()
	h, err := health.New(hc)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// slowBroker builds a broker admitting through h whose observer sleeps per
// delivery, so the pipeline congests under a fast publisher. Returns the
// broker and a function reporting the distinct sequence numbers delivered.
func slowBroker(t *testing.T, e *core.Engine, delay time.Duration, h *health.Health) (*Broker, func() map[int64]bool) {
	t.Helper()
	var mu sync.Mutex
	seqs := map[int64]bool{}
	b, err := New(e, WithWorkers(2), WithHealth(h),
		WithObserver(func(n topology.NodeID, d Delivery) {
			mu.Lock()
			seqs[d.Seq] = true
			mu.Unlock()
			time.Sleep(delay)
		}))
	if err != nil {
		t.Fatal(err)
	}
	return b, func() map[int64]bool {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[int64]bool, len(seqs))
		for k := range seqs {
			out[k] = true
		}
		return out
	}
}

// TestOverloadRejectNewest: with a saturated pipeline the RejectNewest
// policy fails fast with health.ErrOverloaded, the inflight count never
// exceeds the cap, and every admitted event is still delivered.
func TestOverloadRejectNewest(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 930)
	const cap = 8
	h := mustHealth(t, health.Config{
		MaxInflight: cap,
		Policy:      health.RejectNewest,
		Seed:        930,
	})
	b, delivered := slowBroker(t, e, 500*time.Microsecond, h)

	rejected, expected := 0, 0
	evs := w.Events(300, 931)
	for _, ev := range evs {
		err := b.Publish(ev)
		switch {
		case err == nil:
			if matches(w, ev) {
				expected++
			}
		case errors.Is(err, health.ErrOverloaded):
			rejected++
		default:
			t.Fatalf("unexpected publish error: %v", err)
		}
		if inf := h.Admission.Inflight(); inf > cap {
			t.Fatalf("inflight %d exceeds cap %d", inf, cap)
		}
	}
	b.Close()
	st := b.Stats()
	if rejected == 0 {
		t.Fatal("a saturated pipeline never rejected; overload scenario vacuous")
	}
	if st.Rejected != int64(rejected) {
		t.Errorf("Stats.Rejected = %d, caller saw %d errors", st.Rejected, rejected)
	}
	if st.Published != int64(len(evs)-rejected) {
		t.Errorf("Published = %d, want %d admitted", st.Published, len(evs)-rejected)
	}
	// Every admitted event with an interested subscriber was fanned out.
	if got := len(delivered()); got != expected {
		t.Errorf("delivered %d distinct events, want %d", got, expected)
	}
	if st.Shed != 0 {
		t.Errorf("RejectNewest shed %d events; shedding is ShedLowFanout-only", st.Shed)
	}
}

// TestOverloadBlock: the Block policy is lossless backpressure — no
// rejections, no shedding, every single event delivered.
func TestOverloadBlock(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 940)
	b, delivered := slowBroker(t, e, 200*time.Microsecond, mustHealth(t, health.Config{
		MaxInflight: 8,
		Policy:      health.Block,
		Seed:        940,
	}))
	evs := w.Events(200, 941)
	expected := 0
	for _, ev := range evs {
		if err := b.Publish(ev); err != nil {
			t.Fatalf("Block policy returned %v", err)
		}
		if matches(w, ev) {
			expected++
		}
	}
	b.Close()
	st := b.Stats()
	if st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("Block policy lost events: rejected %d shed %d", st.Rejected, st.Shed)
	}
	if st.Published != int64(len(evs)) {
		t.Errorf("Published = %d, want %d", st.Published, len(evs))
	}
	if got := len(delivered()); got != expected {
		t.Errorf("delivered %d distinct events, want %d", got, expected)
	}
}

// TestOverloadShedLowFanout: under sustained congestion the shedding
// policy drops decided events below the running mean fanout; everything
// else is still delivered, and the books balance exactly:
// delivered + shed = published.
func TestOverloadShedLowFanout(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 950)
	b, delivered := slowBroker(t, e, time.Millisecond, mustHealth(t, health.Config{
		MaxInflight: 512, // larger than fanoutCh, so congestion reaches the shed point
		Policy:      health.ShedLowFanout,
		Seed:        950,
	}))
	evs := w.Events(400, 951)
	admitted, matched := 0, 0
	for _, ev := range evs {
		err := b.Publish(ev)
		if err == nil {
			admitted++
			if matches(w, ev) {
				matched++
			}
		} else if !errors.Is(err, health.ErrOverloaded) {
			t.Fatalf("unexpected publish error: %v", err)
		}
	}
	b.Close()
	st := b.Stats()
	if st.Shed == 0 {
		t.Fatal("congested pipeline never shed; scenario vacuous")
	}
	if st.Published != int64(admitted) {
		t.Errorf("Published = %d, want %d admitted", st.Published, admitted)
	}
	// Shed events may or may not have had interested subscribers, so the
	// delivered count is bracketed: at least every matched event that was
	// not shed, at most every matched event.
	got := int64(len(delivered()))
	if got < int64(matched)-st.Shed || got > int64(matched) {
		t.Errorf("delivered %d distinct events, want within [%d−%d, %d]",
			got, matched, st.Shed, matched)
	}
}

// TestPublishRateLimit: the token bucket caps sustained admission
// throughput under RejectNewest.
func TestPublishRateLimit(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 960)
	h, err := health.New(health.Config{
		Policy:     health.RejectNewest,
		RatePerSec: 100,
		Burst:      5,
		Seed:       960,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(e, WithHealth(h))
	if err != nil {
		t.Fatal(err)
	}
	rejected := 0
	for _, ev := range w.Events(50, 961) {
		if err := b.Publish(ev); errors.Is(err, health.ErrOverloaded) {
			rejected++
		}
	}
	b.Close()
	st := b.Stats()
	if rejected == 0 || st.RateLimited == 0 {
		t.Errorf("burst of 50 events above a 100/s limit never rate-limited (rejected %d, rate_limited %d)",
			rejected, st.RateLimited)
	}
	if st.RateLimited > st.Rejected {
		t.Errorf("RateLimited %d > Rejected %d", st.RateLimited, st.Rejected)
	}
}

// TestPublishAfterCloseWithHealth: the ErrClosed contract holds on the
// admission path too — a closed broker reports ErrClosed, not
// ErrOverloaded, and Close stays idempotent.
func TestPublishAfterCloseWithHealth(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 970)
	h := mustHealth(t, health.Config{Policy: health.RejectNewest, MaxInflight: 1, Seed: 970})
	b, err := New(e, WithHealth(h))
	if err != nil {
		t.Fatal(err)
	}
	evs := w.Events(3, 971)
	if err := b.Publish(evs[0]); err != nil {
		t.Fatal(err)
	}
	b.Close()
	b.Close() // idempotent
	if err := b.Publish(evs[1]); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v, want ErrClosed", err)
	}
	// No admission slot may leak from the rejected-after-close publish.
	if inf := h.Admission.Inflight(); inf != 0 {
		t.Errorf("inflight %d after close, want 0", inf)
	}
}
