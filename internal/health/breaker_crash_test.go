package health

import (
	"testing"
	"time"

	"repro/internal/topology"
)

// TestCrashRestartHalfOpenProbe drives the breaker against a scheduled
// crash that strikes twice: the destination is down for seqs [0,40) and
// again for [45,60). The second window lands exactly on a half-open probe,
// so the breaker must re-open from half-open and only close once probes
// land after the second recovery.
func TestCrashRestartHalfOpenProbe(t *testing.T) {
	// down reports whether the destination is crashed at event sequence seq.
	down := func(seq int64) bool {
		return (seq >= 0 && seq < 40) || (seq >= 45 && seq < 60)
	}
	clk := newFakeClock()
	h := newTestHealth(t, clk.Config(Config{
		FailureThreshold: 3,
		OpenTimeout:      100 * time.Millisecond,
		ProbeInterval:    40 * time.Millisecond,
		ProbeSuccesses:   2,
	}))
	tr := h.Tracker
	const n = topology.NodeID(7)

	// report simulates one delivery attempt at the given event sequence:
	// the scheduled crash decides whether the destination answers.
	report := func(seq int64) {
		if down(seq) {
			tr.ReportFailure(n)
		} else {
			tr.ReportSuccess(n, time.Millisecond)
		}
	}

	// Seqs 0–2 fall in the first crash window: three consecutive failures
	// trip the breaker.
	for seq := int64(0); seq < 3; seq++ {
		if !down(seq) {
			t.Fatalf("seq %d: node up inside first crash window", seq)
		}
		report(seq)
	}
	if st := tr.DestState(n); st != StateOpen {
		t.Fatalf("state after first crash window = %v, want %v", st, StateOpen)
	}

	// After OpenTimeout a probe is admitted; it lands at seq 44, in the gap
	// between the two crash windows, and succeeds — half-open holds.
	clk.Advance(110 * time.Millisecond)
	if !tr.AllowDest(n) {
		t.Fatal("no probe admitted after OpenTimeout")
	}
	report(44)
	if st := tr.DestState(n); st != StateHalfOpen {
		t.Fatalf("state after one successful probe = %v, want %v", st, StateHalfOpen)
	}

	// The next probe lands at seq 45 — the first seq of the second crash
	// window. A half-open probe failure re-opens immediately.
	clk.Advance(80 * time.Millisecond) // past the jittered probe interval (≤ 1.5×40ms)
	if !tr.AllowDest(n) {
		t.Fatal("second probe not admitted")
	}
	if !down(45) {
		t.Fatal("seq 45: node up inside second crash window")
	}
	report(45)
	if st := tr.DestState(n); st != StateOpen {
		t.Fatalf("state after probe into second crash = %v, want %v", st, StateOpen)
	}

	// While open, everything to the destination is short-circuited.
	if tr.AllowDest(n) {
		t.Error("open breaker admitted a delivery")
	}

	// Second recovery: probes at seqs ≥ 60 succeed and close the breaker
	// after ProbeSuccesses consecutive wins.
	clk.Advance(110 * time.Millisecond)
	if !tr.AllowDest(n) {
		t.Fatal("no probe after second OpenTimeout")
	}
	report(60)
	clk.Advance(80 * time.Millisecond)
	if !tr.AllowDest(n) {
		t.Fatal("final probe not admitted")
	}
	report(61)
	if st := tr.DestState(n); st != StateClosed {
		t.Fatalf("state after recovery probes = %v, want %v", st, StateClosed)
	}
}
