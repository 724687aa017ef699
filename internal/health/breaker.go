package health

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/topology"
)

// State is a circuit breaker's position.
type State int

const (
	// StateClosed is the healthy state: deliveries flow normally.
	StateClosed State = iota
	// StateOpen rejects all deliveries to the destination; the caller
	// skips it instead of waiting on a known-dead peer.
	StateOpen
	// StateHalfOpen admits jittered probe deliveries; enough successes
	// re-close the breaker, any failure re-opens it.
	StateHalfOpen
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one destination's health record. All fields are guarded by
// the Tracker's mutex.
type breaker struct {
	state       State
	consecFails int
	ackEWMA     float64 // smoothed ack latency, ns
	lastSuccess time.Time
	lastFailure time.Time
	suspicion   float64
	openedAt    time.Time
	nextProbe   time.Time
	probeOK     int
	opens       int64
}

// Tracker detects failing destinations and runs their circuit breakers.
// Its owner feeds it ReportSuccess (exchange + latency) and ReportFailure
// for every exchange with a destination and asks AllowDest before the
// next one. Safe for concurrent use.
type Tracker struct {
	cfg   Config
	clock func() time.Time
	met   *metrics

	mu    sync.Mutex
	dests map[topology.NodeID]*breaker
	// jitterCtr salts successive probe-jitter draws so they are
	// deterministic from Config.Seed yet mutually independent.
	jitterCtr uint64
}

func newTracker(cfg Config, met *metrics) *Tracker {
	return &Tracker{
		cfg:   cfg,
		clock: cfg.Clock,
		met:   met,
		dests: make(map[topology.NodeID]*breaker),
	}
}

func (t *Tracker) get(n topology.NodeID) *breaker {
	b, ok := t.dests[n]
	if !ok {
		b = &breaker{}
		t.dests[n] = b
	}
	return b
}

// jitter returns a deterministic uniform [0.5, 1.5) factor.
func (t *Tracker) jitter(n topology.NodeID) float64 {
	t.jitterCtr++
	h := splitmix64(uint64(t.cfg.Seed) ^ 0xA24BAED4963EE407)
	h = splitmix64(h ^ uint64(n))
	h = splitmix64(h ^ t.jitterCtr)
	return 0.5 + float64(h>>11)/(1<<53)
}

// AllowDest reports whether a delivery to n may proceed. Closed breakers
// always allow; open breakers reject until OpenTimeout elapses, then
// half-open and admit one probe per jittered ProbeInterval.
func (t *Tracker) AllowDest(n topology.NodeID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.dests[n]
	if !ok || b.state == StateClosed {
		return true
	}
	now := t.clock()
	if b.state == StateOpen {
		if now.Sub(b.openedAt) < t.cfg.OpenTimeout {
			return false
		}
		t.setState(b, StateHalfOpen)
		b.probeOK = 0
		b.nextProbe = now
	}
	// Half-open: admit at most one probe per jittered interval.
	if now.Before(b.nextProbe) {
		return false
	}
	b.nextProbe = now.Add(time.Duration(float64(t.cfg.ProbeInterval) * t.jitter(n)))
	t.met.probes.Inc()
	return true
}

// ReportSuccess feeds one successful exchange and its latency.
// Successes reset the consecutive-failure count and suspicion, and drive
// half-open breakers toward closed.
func (t *Tracker) ReportSuccess(n topology.NodeID, ackLatency time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(n)
	b.consecFails = 0
	b.suspicion = 0
	b.lastSuccess = t.clock()
	lat := float64(ackLatency)
	if b.ackEWMA == 0 {
		b.ackEWMA = lat
	} else {
		b.ackEWMA += t.cfg.EWMAAlpha * (lat - b.ackEWMA)
	}
	if b.state == StateHalfOpen {
		b.probeOK++
		if b.probeOK >= t.cfg.ProbeSuccesses {
			t.setState(b, StateClosed)
			t.met.breakerClos.Inc()
		}
	}
}

// ReportFailure feeds one hard failure: an exchange that got no answer.
// It recomputes the suspicion score and opens the breaker past either
// threshold; a failure during half-open re-opens immediately.
func (t *Tracker) ReportFailure(n topology.NodeID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(n)
	now := t.clock()
	b.consecFails++
	b.lastFailure = now
	b.suspicion = t.phi(b, now)
	t.met.suspicion.Observe(b.suspicion)
	switch b.state {
	case StateHalfOpen:
		// Probe failed: straight back to open, timer restarted.
		t.setState(b, StateOpen)
		b.openedAt = now
		b.opens++
		t.met.breakerOpen.Inc()
	case StateClosed:
		if b.consecFails >= t.cfg.FailureThreshold || b.suspicion >= t.cfg.SuspicionThreshold {
			t.setState(b, StateOpen)
			b.openedAt = now
			b.opens++
			t.met.breakerOpen.Inc()
		}
	}
}

// phi is the simplified phi-accrual-style suspicion score: the consecutive
// hard-failure count plus a term that grows with silence since the last
// success, measured in units of the expected ack cadence (4× the smoothed
// ack latency, floored at 1ms). A destination that acked recently and
// failed once scores ~1; one that has been silent for many expected-ack
// windows keeps climbing even between failures.
func (t *Tracker) phi(b *breaker, now time.Time) float64 {
	s := float64(b.consecFails)
	if !b.lastSuccess.IsZero() {
		window := 4 * b.ackEWMA
		if window < float64(time.Millisecond) {
			window = float64(time.Millisecond)
		}
		s += math.Log1p(float64(now.Sub(b.lastSuccess)) / window)
	}
	return s
}

// setState moves a breaker between states, keeping the open/half-open
// gauges in sync.
func (t *Tracker) setState(b *breaker, next State) {
	if b.state == next {
		return
	}
	switch b.state {
	case StateOpen:
		t.met.openBreakers.Add(-1)
	case StateHalfOpen:
		t.met.halfOpenBreakers.Add(-1)
	}
	switch next {
	case StateOpen:
		t.met.openBreakers.Add(1)
	case StateHalfOpen:
		t.met.halfOpenBreakers.Add(1)
	}
	b.state = next
}

// Suspicion returns the destination's current suspicion score.
func (t *Tracker) Suspicion(n topology.NodeID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.dests[n]; ok {
		return b.suspicion
	}
	return 0
}

// DestState returns the destination's breaker state (closed for
// never-seen destinations).
func (t *Tracker) DestState(n topology.NodeID) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	if b, ok := t.dests[n]; ok {
		return b.state
	}
	return StateClosed
}

// TrackerSnapshot is a point-in-time view of breaker state.
type TrackerSnapshot struct {
	Tracked  int
	Open     int
	HalfOpen int
	// OpenDests lists destinations whose breaker is open or half-open,
	// ascending.
	OpenDests []topology.NodeID
	// Opens is the cumulative count of breaker-open transitions.
	Opens int64
}

// Snapshot summarises the tracker.
func (t *Tracker) Snapshot() TrackerSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TrackerSnapshot{Tracked: len(t.dests)}
	for n, b := range t.dests {
		s.Opens += b.opens
		switch b.state {
		case StateOpen:
			s.Open++
			s.OpenDests = append(s.OpenDests, n)
		case StateHalfOpen:
			s.HalfOpen++
			s.OpenDests = append(s.OpenDests, n)
		}
	}
	sort.Slice(s.OpenDests, func(i, j int) bool { return s.OpenDests[i] < s.OpenDests[j] })
	return s
}
