package transport

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// flushWheel schedules flush-window deadlines for every session on one
// goroutine. All deadlines share the same delay (the server's
// FlushWindow), so the queue is FIFO with ascending deadlines — a
// degenerate calendar queue: the runner sleeps until the head is due,
// fires it, and repeats. This replaces a per-writer sleep on every
// delivery burst with a single timer for the whole server, keeping the
// per-connection cost flat no matter how many sessions coalesce bursts
// at once. On Linux the runner waits on the kernel's timer (see sleep),
// not on a Go timer, so an idle server's window is not rounded up to the
// netpoller's millisecond.
type flushWheel struct {
	window time.Duration
	late   *telemetry.Histogram // fire time minus deadline, per fired session

	mu     sync.Mutex
	cond   *sync.Cond
	q      []flushEntry
	closed bool
}

type flushEntry struct {
	s        *session
	deadline time.Time
}

func newFlushWheel(window time.Duration, late *telemetry.Histogram) *flushWheel {
	fw := &flushWheel{window: window, late: late}
	fw.cond = sync.NewCond(&fw.mu)
	go fw.run()
	return fw
}

// arm schedules s's flush deadline one window from now. Called with the
// session's mu held (lock order: session.mu → wheel.mu, never reversed —
// the runner releases wheel.mu before touching a session).
func (fw *flushWheel) arm(s *session) {
	fw.mu.Lock()
	fw.q = append(fw.q, flushEntry{s: s, deadline: time.Now().Add(fw.window)})
	fw.cond.Signal()
	fw.mu.Unlock()
}

func (fw *flushWheel) stop() {
	fw.mu.Lock()
	fw.closed = true
	fw.cond.Signal()
	fw.mu.Unlock()
}

func (fw *flushWheel) run() {
	var due []flushEntry
	for {
		fw.mu.Lock()
		for len(fw.q) == 0 && !fw.closed {
			fw.cond.Wait()
		}
		if fw.closed {
			fw.mu.Unlock()
			return
		}
		now := time.Now()
		if wait := fw.q[0].deadline.Sub(now); wait > 0 {
			fw.mu.Unlock()
			// Bounded by the window; new arrivals land behind the head,
			// so no wake-up is missed.
			sleep(wait)
			continue
		}
		// Pop everything due — bursts arm many sessions within one window.
		n := 0
		for n < len(fw.q) && !fw.q[n].deadline.After(now) {
			n++
		}
		due = append(due[:0], fw.q[:n]...)
		fw.q = append(fw.q[:0], fw.q[n:]...)
		fw.mu.Unlock()
		for i := range due {
			fw.late.ObserveDuration(now.Sub(due[i].deadline))
			due[i].s.flushFire()
			due[i].s = nil
		}
	}
}
