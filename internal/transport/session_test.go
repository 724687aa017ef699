package transport

import (
	"testing"

	"repro/internal/wire"
)

// TestKilledSessionIsFlushed pins a drain race: Shutdown queues its drain
// frame on every session it finds, and a client goodbye read just after
// ends the session before its writer sends the frame. A dead session never
// writes again, so what it still holds must not keep the drain waiting
// until its deadline.
func TestKilledSessionIsFlushed(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.finishClose()
	s := newSession(srv, 1, 16)
	s.sendCtrl(wire.AppendDrain(nil))
	if s.flushed() {
		t.Fatal("a queued drain frame counts as flushed")
	}
	s.kill()
	if !s.flushed() {
		t.Fatal("a killed session's unsent control frame holds the drain open")
	}
}
