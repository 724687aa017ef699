package transport

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestFlushWheelFires proves the shared wheel delivers one fire per arm:
// flushDue set, flushArmed cleared, waiters woken.
func TestFlushWheelFires(t *testing.T) {
	srv := NewServer(Config{FlushWindow: time.Millisecond})
	defer srv.finishClose()
	var sessions []*session
	for i := 0; i < 3; i++ {
		s := newSession(srv, uint64(i+1), 16)
		s.flushArmed = true
		sessions = append(sessions, s)
		s.mu.Lock()
		srv.wheel.arm(s)
		s.mu.Unlock()
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, s := range sessions {
		for {
			s.mu.Lock()
			due, armed := s.flushDue, s.flushArmed
			s.mu.Unlock()
			if due && !armed {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %d never fired (due=%v armed=%v)", s.token, due, armed)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestFlushWheelStop pins shutdown: a stopped wheel's runner exits and a
// late arm never fires (the sessions it would wake are dead anyway).
func TestFlushWheelStop(t *testing.T) {
	srv := NewServer(Config{FlushWindow: time.Millisecond})
	wheel := srv.wheel
	srv.finishClose()
	s := newSession(srv, 1, 16)
	wheel.arm(s) // must not panic or fire
	time.Sleep(5 * time.Millisecond)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.flushDue {
		t.Error("stopped wheel fired an armed session")
	}
}

// TestFlushWindowStillCoalesces drives a burst through one session and
// checks the wheel path preserves the coalescing contract: deliveries
// are not written before the window fires (flushDue gate) unless a full
// batch accumulates.
func TestFlushWindowStillCoalesces(t *testing.T) {
	srv := NewServer(Config{FlushWindow: 50 * time.Millisecond, MaxBatch: 64})
	defer srv.finishClose()
	s := newSession(srv, 1, 1024)
	s.mu.Lock()
	s.queue = append(s.queue, wireDeliverN(4)...)
	ready := s.deliveriesReadyLocked()
	s.mu.Unlock()
	if ready {
		t.Fatal("partial batch ready before the flush window fired")
	}
	s.flushFire()
	s.mu.Lock()
	ready = s.deliveriesReadyLocked()
	s.mu.Unlock()
	if !ready {
		t.Fatal("batch not ready after the flush window fired")
	}
	// A full batch bypasses the window entirely.
	s2 := newSession(srv, 2, 1024)
	s2.mu.Lock()
	s2.queue = append(s2.queue, wireDeliverN(64)...)
	ready = s2.deliveriesReadyLocked()
	s2.mu.Unlock()
	if !ready {
		t.Fatal("full batch still waiting on the flush window")
	}
}

// armAndWait arms s on srv's wheel and waits on the session's cond until
// the wheel fires it. It returns the time from arming to waking up.
func armAndWait(srv *Server, s *session) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushArmed = true
	t0 := time.Now()
	srv.wheel.arm(s)
	for s.flushArmed {
		s.cond.Wait()
	}
	s.flushDue = false
	return time.Since(t0)
}

// TestFlushWheelFiresOnTime pins the wheel's timer: in an idle process a
// Go timer under 1 ms fires from the netpoller's millisecond epoll wait,
// which made every 200 µs window cost ≥ 1 ms. The wheel sleeps on the
// kernel's timer instead, so the median fire is well under a millisecond
// late. The waits are on the session's cond, never a poll loop, which
// would keep the runtime's timers busy and hide the rounding. Best of
// three rounds, so one stall of the host does not fail it.
func TestFlushWheelFiresOnTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the kernel-timer sleep is Linux only; elsewhere the wheel keeps time.Sleep")
	}
	const (
		window = 200 * time.Microsecond
		fires  = 50
		rounds = 3
		bound  = 500 * time.Microsecond
	)
	srv := NewServer(Config{FlushWindow: window})
	defer srv.finishClose()
	s := newSession(srv, 1, 16)
	best := time.Duration(1<<63 - 1)
	late := make([]time.Duration, fires)
	for r := 0; r < rounds; r++ {
		for i := range late {
			late[i] = armAndWait(srv, s) - window
		}
		slices.Sort(late)
		best = min(best, late[fires/2])
	}
	t.Logf("best median lateness over %d rounds of %d fires: %v", rounds, fires, best)
	if best >= bound {
		t.Errorf("median flush-window lateness %v, want < %v", best, bound)
	}
	if got := srv.met.flushLate.Snapshot().Count; got != rounds*fires {
		t.Errorf("flush_late_ns counted %d fires, want %d", got, rounds*fires)
	}
}

// TestFlushWheelZeroAllocs pins the wheel's steady state at zero
// allocations: arming reuses the queue's backing array, the runner its
// due slice, and the lateness histogram and the sleep allocate nothing.
func TestFlushWheelZeroAllocs(t *testing.T) {
	srv := NewServer(Config{FlushWindow: 20 * time.Microsecond})
	defer srv.finishClose()
	s := newSession(srv, 1, 16)
	for i := 0; i < 10; i++ {
		armAndWait(srv, s)
	}
	if allocs := testing.AllocsPerRun(200, func() { armAndWait(srv, s) }); allocs != 0 {
		t.Errorf("arm → fire allocated %.2f times per cycle, want 0", allocs)
	}
}

func wireDeliverN(n int) []wire.Deliver {
	return make([]wire.Deliver, n)
}
