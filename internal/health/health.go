// Package health is the overload-protection and failure-detection layer
// of the daemon. It has two parts:
//
//   - Admission: bounded ingress for the broker. A token-bucket publish
//     rate limiter and a MaxInflight semaphore over the broker pipeline,
//     with three overload policies — Block (lossless backpressure),
//     RejectNewest (fail fast with ErrOverloaded) and ShedLowFanout (under
//     congestion, drop the events with the fewest interested subscribers:
//     the cheapest to recover, since the fewest parties miss them).
//
//   - Tracker: failure detection and circuit breakers for remote peers. A
//     per-destination health record fed by exchange outcomes and
//     latencies combines an EWMA of the latency, a consecutive-failure
//     count and a simplified phi-accrual-style suspicion score; past the
//     threshold the destination's breaker opens and the caller stops
//     sending to it. After OpenTimeout the breaker half-opens and admits
//     jittered probes; enough probe successes re-close it. The
//     replication leader and follower (internal/replicate) track their
//     peer with one.
//
// All knobs live in Config with validated defaults; everything observable
// lands in the "health" telemetry scope (shed_events, rejected_events,
// breaker_open, breaker_close, probes, rate_limited counters, open/half-open
// breaker and inflight gauges, a suspicion histogram and a queue_depth
// histogram). Probe jitter is deterministic from Config.Seed, so tests
// replay identically.
package health

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// ErrOverloaded is returned by admission under the RejectNewest and
// ShedLowFanout policies when the pipeline is saturated or the publish
// rate limiter is out of tokens.
var ErrOverloaded = errors.New("health: overloaded")

// ErrClosed is returned by Admission.Admit after Admission.Close: the
// owning broker is shutting down and no further publications are admitted.
var ErrClosed = errors.New("health: closed")

// Policy selects what admission does when the pipeline is saturated.
type Policy int

const (
	// Block applies lossless backpressure: Publish waits for capacity.
	Block Policy = iota
	// RejectNewest fails fast: a saturated pipeline returns ErrOverloaded
	// to the newest publisher, bounding queue depth.
	RejectNewest
	// ShedLowFanout rejects at ingress like RejectNewest and additionally
	// sheds decided events whose fanout is below the running average when
	// the fan-out stage is congested — dropping the cheapest-to-recover
	// events first.
	ShedLowFanout
)

// String renders the policy as its CLI spelling.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case RejectNewest:
		return "reject"
	case ShedLowFanout:
		return "shed-low-fanout"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy parses a CLI policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "reject", "reject-newest":
		return RejectNewest, nil
	case "shed", "shed-low-fanout":
		return ShedLowFanout, nil
	default:
		return 0, fmt.Errorf("health: unknown policy %q (want block, reject or shed-low-fanout)", s)
	}
}

// Config tunes every part of the subsystem. The zero value is valid: it
// means Block admission with the default inflight bound, no rate limit and
// default breaker thresholds.
type Config struct {
	// --- Admission ---

	// MaxInflight bounds events admitted into the broker pipeline but not
	// yet fully fanned out (default 256).
	MaxInflight int
	// Policy is the overload policy (default Block).
	Policy Policy
	// RatePerSec is the token-bucket publish rate limit; 0 disables it.
	RatePerSec float64
	// Burst is the token-bucket capacity (default max(1, RatePerSec)).
	Burst int

	// --- Failure detection / circuit breakers ---

	// FailureThreshold is the consecutive hard-failure count that opens a
	// destination's breaker (default 3).
	FailureThreshold int
	// SuspicionThreshold opens the breaker when the phi-style suspicion
	// score exceeds it even before FailureThreshold consecutive failures
	// (default 8).
	SuspicionThreshold float64
	// EWMAAlpha is the smoothing factor for the latency EWMA, in (0, 1]
	// (default 0.2).
	EWMAAlpha float64
	// OpenTimeout is how long an open breaker rejects before it half-opens
	// and admits probes (default 100ms).
	OpenTimeout time.Duration
	// ProbeInterval spaces half-open probes; each interval is scaled by a
	// deterministic jitter in [0.5, 1.5) (default OpenTimeout/2).
	ProbeInterval time.Duration
	// ProbeSuccesses is how many consecutive probe successes re-close a
	// half-open breaker (default 2).
	ProbeSuccesses int

	// Seed drives the deterministic probe jitter (default 1).
	Seed int64
	// Clock overrides the time source, for deterministic tests
	// (default time.Now).
	Clock func() time.Time
}

// setDefaults fills zero fields in place.
func (c *Config) setDefaults() {
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.Burst == 0 {
		c.Burst = int(c.RatePerSec)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.FailureThreshold == 0 {
		c.FailureThreshold = 3
	}
	if c.SuspicionThreshold == 0 {
		c.SuspicionThreshold = 8
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.2
	}
	if c.OpenTimeout == 0 {
		c.OpenTimeout = 100 * time.Millisecond
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = c.OpenTimeout / 2
	}
	if c.ProbeSuccesses == 0 {
		c.ProbeSuccesses = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Validate rejects nonsensical configurations. Zero fields are legal (they
// take defaults); explicitly negative or out-of-range values are not.
func (c Config) Validate() error {
	if c.MaxInflight < 0 {
		return fmt.Errorf("health: MaxInflight = %d, need ≥ 0", c.MaxInflight)
	}
	if c.Policy < Block || c.Policy > ShedLowFanout {
		return fmt.Errorf("health: unknown policy %d", int(c.Policy))
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("health: RatePerSec = %v, need ≥ 0", c.RatePerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("health: Burst = %d, need ≥ 0", c.Burst)
	}
	if c.FailureThreshold < 0 {
		return fmt.Errorf("health: FailureThreshold = %d, need ≥ 0", c.FailureThreshold)
	}
	if c.SuspicionThreshold < 0 {
		return fmt.Errorf("health: SuspicionThreshold = %v, need ≥ 0", c.SuspicionThreshold)
	}
	if c.EWMAAlpha < 0 || c.EWMAAlpha > 1 {
		return fmt.Errorf("health: EWMAAlpha = %v, need [0, 1]", c.EWMAAlpha)
	}
	for name, d := range map[string]time.Duration{
		"OpenTimeout":   c.OpenTimeout,
		"ProbeInterval": c.ProbeInterval,
	} {
		if d < 0 {
			return fmt.Errorf("health: %s = %v, need ≥ 0", name, d)
		}
	}
	if c.ProbeSuccesses < 0 {
		return fmt.Errorf("health: ProbeSuccesses = %d, need ≥ 0", c.ProbeSuccesses)
	}
	return nil
}

// metrics caches the subsystem's telemetry handles. All fields are nil
// until Instrument runs; every instrument is nil-safe, so an
// un-instrumented Health records nothing at no cost.
type metrics struct {
	shed            *telemetry.Counter // events dropped by ShedLowFanout
	rejected        *telemetry.Counter // publishes refused with ErrOverloaded
	rateLimited     *telemetry.Counter // rejections specifically from the token bucket
	releaseSpurious *telemetry.Counter // repeated Token.Release calls (bug tripwire)
	breakerOpen     *telemetry.Counter // closed/half-open → open transitions
	breakerClos     *telemetry.Counter // half-open → closed transitions
	probes          *telemetry.Counter // half-open probe deliveries admitted

	openBreakers     *telemetry.Gauge
	halfOpenBreakers *telemetry.Gauge
	inflight         *telemetry.Gauge

	suspicion  *telemetry.Histogram // suspicion score at each hard failure
	queueDepth *telemetry.Histogram // inflight depth sampled at each admit
}

// Health bundles the two parts. Construct with New, wire into a broker
// with broker.WithHealth; the broker instruments it into its registry and
// admits every publication through its Admission.
type Health struct {
	cfg Config
	met metrics

	Admission *Admission
	Tracker   *Tracker
}

// New validates the config, applies defaults and builds the subsystem.
func New(cfg Config) (*Health, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.setDefaults()
	h := &Health{cfg: cfg}
	h.Admission = newAdmission(cfg, &h.met)
	h.Tracker = newTracker(cfg, &h.met)
	return h, nil
}

// Config returns the effective (defaulted) configuration.
func (h *Health) Config() Config { return h.cfg }

// Instrument publishes the subsystem's metrics into the registry under
// scope "health". The broker calls this with its own registry at New; a
// nil registry is a no-op (instruments stay nil and record nothing).
func (h *Health) Instrument(reg *telemetry.Registry) {
	s := reg.Scope("health")
	if s == nil {
		return
	}
	h.met = metrics{
		shed:             s.Counter("shed_events"),
		rejected:         s.Counter("rejected_events"),
		rateLimited:      s.Counter("rate_limited"),
		releaseSpurious:  s.Counter("release_spurious"),
		breakerOpen:      s.Counter("breaker_open"),
		breakerClos:      s.Counter("breaker_close"),
		probes:           s.Counter("probes"),
		openBreakers:     s.Gauge("open_breakers"),
		halfOpenBreakers: s.Gauge("half_open_breakers"),
		inflight:         s.Gauge("inflight"),
		suspicion:        s.Histogram("suspicion", telemetry.LinearBuckets(0, 1, 16)),
		queueDepth:       s.Histogram("queue_depth", telemetry.LinearBuckets(0, 16, 32)),
	}
}

// Counters returns the cumulative admission counts — the broker folds
// these into its Stats snapshot.
type Counters struct {
	Shed            int64
	Rejected        int64
	RateLimited     int64
	ReleaseSpurious int64
}

// CounterSnapshot reads the cumulative counters.
func (h *Health) CounterSnapshot() Counters {
	return Counters{
		Shed:            h.met.shed.Value(),
		Rejected:        h.met.rejected.Value(),
		RateLimited:     h.met.rateLimited.Value(),
		ReleaseSpurious: h.met.releaseSpurious.Value(),
	}
}

// splitmix64 is the SplitMix64 finalizer, the same mixer the fault
// injectors use; health draws its probe jitter from it so a (seed, key)
// pair fully determines every probabilistic choice.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
