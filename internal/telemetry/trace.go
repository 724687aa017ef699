package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Span is one step of a publication's lifecycle. Times are offsets from the
// event's trace start, so traces are comparable across runs and serialise
// without wall-clock noise.
type Span struct {
	// Name is the lifecycle stage: "decide", "enqueue", "shed", "ack",
	// "dedup".
	Name string `json:"name"`
	// Start and Dur locate the span relative to the trace's first span.
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Node is the destination node, -1 when the span is not per-destination.
	Node int64 `json:"node"`
	// Group is the routed multicast group, -1 for unicast/none.
	Group int `json:"group"`
	// Note carries free-form detail ("multicast", "low-fanout").
	Note string `json:"note,omitempty"`
}

// EventTrace accumulates the spans of one sampled publication. Spans may be
// added concurrently (the broker's decision and fan-out workers all touch
// the same event).
type EventTrace struct {
	Seq int64 `json:"seq"`

	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// Add appends a completed span whose wall-clock start was st.
func (et *EventTrace) Add(name string, st time.Time, dur time.Duration, node int64, group int, note string) {
	if et == nil {
		return
	}
	et.mu.Lock()
	et.spans = append(et.spans, Span{
		Name:  name,
		Start: st.Sub(et.t0),
		Dur:   dur,
		Node:  node,
		Group: group,
		Note:  note,
	})
	et.mu.Unlock()
}

// Spans returns a copy of the spans recorded so far.
func (et *EventTrace) Spans() []Span {
	if et == nil {
		return nil
	}
	et.mu.Lock()
	defer et.mu.Unlock()
	return append([]Span(nil), et.spans...)
}

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// Capacity is the ring size in events (default 1024): the trace buffer
	// keeps the most recent Capacity sampled events.
	Capacity int
	// SampleRate is the fraction of events traced, in [0, 1] (default 1).
	// Sampling is a deterministic hash of (Seed, seq): the same seed and
	// rate trace exactly the same events, run after run, regardless of
	// goroutine interleaving.
	SampleRate float64
	// Seed drives the sampling hash.
	Seed int64
}

// Tracer records sampled per-event lifecycle traces into a bounded ring.
// Begin is the only hot-path call, and for unsampled events it is one hash
// and a compare. Nil-safe throughout.
type Tracer struct {
	cfg TracerConfig

	mu   sync.Mutex
	ring []*EventTrace
	next int
	n    int // total sampled events ever begun
}

// NewTracer validates the config and builds a tracer.
func NewTracer(cfg TracerConfig) (*Tracer, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = 1024
	}
	if cfg.Capacity < 1 {
		return nil, fmt.Errorf("telemetry: tracer capacity %d", cfg.Capacity)
	}
	if cfg.SampleRate == 0 {
		cfg.SampleRate = 1
	}
	if cfg.SampleRate < 0 || cfg.SampleRate > 1 {
		return nil, fmt.Errorf("telemetry: sample rate %v, need [0,1]", cfg.SampleRate)
	}
	return &Tracer{
		cfg:  cfg,
		ring: make([]*EventTrace, cfg.Capacity),
	}, nil
}

// splitmix64 is the same mixing function the conn-fault injector uses: cheap,
// high-quality avalanche, so sampling is uniform over sequence numbers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sampled reports whether the event with this sequence number is traced:
// the (Seed, seq) hash, mapped to [0, 1), falls below the sample rate.
func (t *Tracer) Sampled(seq int64) bool {
	if t == nil {
		return false
	}
	if t.cfg.SampleRate >= 1 {
		return true
	}
	h := splitmix64(uint64(seq) ^ splitmix64(uint64(t.cfg.Seed)))
	return float64(h)/math.Ldexp(1, 64) < t.cfg.SampleRate
}

// Begin starts a trace for the event, or returns nil when the event is not
// sampled. The trace is registered into the ring immediately, so exports
// observe in-flight events with however many spans they have accumulated.
func (t *Tracer) Begin(seq int64) *EventTrace {
	if t == nil || !t.Sampled(seq) {
		return nil
	}
	et := &EventTrace{Seq: seq, t0: time.Now()}
	t.mu.Lock()
	t.ring[t.next] = et
	t.next = (t.next + 1) % len(t.ring)
	t.n++
	t.mu.Unlock()
	return et
}

// Sampled events ever begun (including ones already evicted from the ring).
func (t *Tracer) Count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Traces returns the retained traces, oldest first.
func (t *Tracer) Traces() []*EventTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*EventTrace, 0, len(t.ring))
	for i := 0; i < len(t.ring); i++ {
		et := t.ring[(t.next+i)%len(t.ring)]
		if et != nil {
			out = append(out, et)
		}
	}
	return out
}

// traceRecord is the JSONL wire form of one trace.
type traceRecord struct {
	Seq   int64  `json:"seq"`
	Spans []Span `json:"spans"`
}

// WriteJSONL serialises the retained traces as one JSON object per line,
// oldest first — the offline-analysis export format.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, et := range t.Traces() {
		if err := enc.Encode(traceRecord{Seq: et.Seq, Spans: et.Spans()}); err != nil {
			return err
		}
	}
	return nil
}
