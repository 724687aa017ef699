package health

import (
	"errors"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is a manually advanced time source shared by the deterministic
// breaker tests.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time           { return c.now }
func (c *fakeClock) Advance(d time.Duration)  { c.now = c.now.Add(d) }
func (c *fakeClock) Config(cfg Config) Config { cfg.Clock = c.Now; return cfg }

func newTestHealth(t *testing.T, cfg Config) *Health {
	t.Helper()
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Instrument(telemetry.NewRegistry())
	return h
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MaxInflight: -1},
		{Policy: Policy(9)},
		{RatePerSec: -0.5},
		{Burst: -2},
		{FailureThreshold: -1},
		{SuspicionThreshold: -1},
		{EWMAAlpha: 1.5},
		{OpenTimeout: -time.Second},
		{ProbeInterval: -time.Second},
		{ProbeSuccesses: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	h, err := New(Config{})
	if err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	got := h.Config()
	if got.MaxInflight != 256 || got.FailureThreshold != 3 || got.ProbeSuccesses != 2 {
		t.Errorf("defaults not applied: %+v", got)
	}
	if got.ProbeInterval != got.OpenTimeout/2 {
		t.Errorf("ProbeInterval default = %v, want %v", got.ProbeInterval, got.OpenTimeout/2)
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{
		"block":           Block,
		"reject":          RejectNewest,
		"reject-newest":   RejectNewest,
		"shed":            ShedLowFanout,
		"shed-low-fanout": ShedLowFanout,
	} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
		if _, err := ParsePolicy(got.String()); err != nil {
			t.Errorf("String %q does not round-trip", got)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestAdmissionRejectNewest(t *testing.T) {
	h := newTestHealth(t, Config{MaxInflight: 3, Policy: RejectNewest})
	a := h.Admission
	toks := make([]*Token, 0, 3)
	for i := 0; i < 3; i++ {
		tok, err := a.Admit()
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		toks = append(toks, tok)
	}
	if _, err := a.Admit(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("4th admit err = %v, want ErrOverloaded", err)
	}
	if a.Inflight() != 3 {
		t.Fatalf("inflight = %d", a.Inflight())
	}
	toks[0].Release()
	tok, err := a.Admit()
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := h.CounterSnapshot().Rejected; got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// Release is strict: repeats on an already-released token are counted
	// and ignored, never freeing another publisher's slot.
	toks[1].Release()
	toks[2].Release()
	tok.Release()
	for i := 0; i < 10; i++ {
		toks[0].Release()
	}
	if a.Inflight() != 0 {
		t.Errorf("inflight after drain = %d", a.Inflight())
	}
	if got := h.CounterSnapshot().ReleaseSpurious; got != 10 {
		t.Errorf("release_spurious = %d, want 10", got)
	}
	// A nil token is a no-op from any call site.
	var nilTok *Token
	nilTok.Release()
}

func TestAdmissionRateLimit(t *testing.T) {
	clk := newFakeClock()
	h := newTestHealth(t, clk.Config(Config{
		MaxInflight: 100, Policy: RejectNewest, RatePerSec: 10, Burst: 2,
	}))
	a := h.Admission
	// Burst of 2 passes, third is rate-limited.
	for i := 0; i < 2; i++ {
		if _, err := a.Admit(); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	if _, err := a.Admit(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-rate admit err = %v", err)
	}
	if got := h.CounterSnapshot().RateLimited; got != 1 {
		t.Errorf("rate_limited = %d, want 1", got)
	}
	// 100ms accrues exactly one token at 10/s.
	clk.Advance(100 * time.Millisecond)
	if _, err := a.Admit(); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	if _, err := a.Admit(); !errors.Is(err, ErrOverloaded) {
		t.Fatal("second admit within the same refill window passed")
	}
}

func TestShedLowFanout(t *testing.T) {
	h := newTestHealth(t, Config{Policy: ShedLowFanout, EWMAAlpha: 0.5})
	a := h.Admission
	if a.ShouldShed(0) {
		t.Error("shed before any fanout observation")
	}
	a.NoteFanout(10)
	a.NoteFanout(10)
	if !a.ShouldShed(3) {
		t.Error("low-fanout event not shed")
	}
	if a.ShouldShed(10) {
		t.Error("at-mean fanout shed")
	}
	if a.ShouldShed(25) {
		t.Error("high-fanout event shed")
	}
	// Block policy never sheds.
	hb := newTestHealth(t, Config{Policy: Block})
	hb.Admission.NoteFanout(10)
	if hb.Admission.ShouldShed(1) {
		t.Error("Block policy shed an event")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	h := newTestHealth(t, clk.Config(Config{
		FailureThreshold: 3,
		OpenTimeout:      100 * time.Millisecond,
		ProbeInterval:    40 * time.Millisecond,
		ProbeSuccesses:   2,
	}))
	tr := h.Tracker
	const n = 7

	// Two failures: still closed (threshold is 3).
	tr.ReportFailure(n)
	tr.ReportFailure(n)
	if st := tr.DestState(n); st != StateClosed {
		t.Fatalf("state after 2 failures = %v", st)
	}
	// A success resets the streak.
	tr.ReportSuccess(n, time.Millisecond)
	tr.ReportFailure(n)
	tr.ReportFailure(n)
	if st := tr.DestState(n); st != StateClosed {
		t.Fatalf("state after reset + 2 failures = %v", st)
	}
	tr.ReportFailure(n)
	if st := tr.DestState(n); st != StateOpen {
		t.Fatalf("state after 3 consecutive failures = %v", st)
	}
	if !tr.AllowDest(99) {
		t.Error("unrelated destination blocked")
	}
	if tr.AllowDest(n) {
		t.Error("open breaker allowed a delivery")
	}

	// Half-open after OpenTimeout: exactly one probe per interval.
	clk.Advance(110 * time.Millisecond)
	if !tr.AllowDest(n) {
		t.Fatal("no probe admitted after OpenTimeout")
	}
	if st := tr.DestState(n); st != StateHalfOpen {
		t.Fatalf("state after timeout = %v", st)
	}
	if tr.AllowDest(n) {
		t.Error("second probe admitted within the probe interval")
	}

	// Probe failure re-opens immediately.
	tr.ReportFailure(n)
	if st := tr.DestState(n); st != StateOpen {
		t.Fatalf("state after failed probe = %v", st)
	}

	// Recover: probe successes close it.
	clk.Advance(110 * time.Millisecond)
	if !tr.AllowDest(n) {
		t.Fatal("no probe after second timeout")
	}
	tr.ReportSuccess(n, time.Millisecond)
	clk.Advance(80 * time.Millisecond) // past the jittered probe interval (≤ 1.5×40ms)
	if !tr.AllowDest(n) {
		t.Fatal("second probe not admitted")
	}
	tr.ReportSuccess(n, time.Millisecond)
	if st := tr.DestState(n); st != StateClosed {
		t.Fatalf("state after %d probe successes = %v", 2, st)
	}
	if tr.Suspicion(n) != 0 {
		t.Errorf("suspicion after recovery = %v", tr.Suspicion(n))
	}

	snap := tr.Snapshot()
	if snap.Open != 0 || snap.HalfOpen != 0 || snap.Opens != 2 {
		t.Errorf("snapshot = %+v, want 0 open, 2 cumulative opens", snap)
	}
	if got := h.met.breakerOpen.Value(); got != 2 {
		t.Errorf("breaker_open counter = %d, want 2", got)
	}
}

func TestSuspicionGrowsWithSilence(t *testing.T) {
	clk := newFakeClock()
	h := newTestHealth(t, clk.Config(Config{SuspicionThreshold: 4, FailureThreshold: 100}))
	tr := h.Tracker
	const n = 3
	tr.ReportSuccess(n, time.Millisecond)
	tr.ReportFailure(n)
	early := tr.Suspicion(n)
	clk.Advance(10 * time.Second)
	tr.ReportFailure(n)
	late := tr.Suspicion(n)
	if late <= early {
		t.Fatalf("suspicion did not grow with silence: %v then %v", early, late)
	}
	// Long silence pushes phi past the threshold before 100 consecutive
	// failures ever accumulate.
	clk.Advance(time.Hour)
	tr.ReportFailure(n)
	if st := tr.DestState(n); st != StateOpen {
		t.Fatalf("suspicion %v did not open the breaker (state %v)", tr.Suspicion(n), st)
	}
}
