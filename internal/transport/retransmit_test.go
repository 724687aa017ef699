package transport_test

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

// stallBackend is a Backend whose PublishSeq and Subscribe report each
// entry on entered and then wait until release is closed.
type stallBackend struct {
	entered chan struct{}
	release chan struct{}

	mu    sync.Mutex
	calls map[string]int
}

func newStallBackend() *stallBackend {
	// Room for every entry a test can make, so a call never blocks on
	// reporting itself.
	return &stallBackend{entered: make(chan struct{}, 8), release: make(chan struct{}), calls: make(map[string]int)}
}

func (b *stallBackend) enter(op string) int {
	b.mu.Lock()
	b.calls[op]++
	n := b.calls[op]
	b.mu.Unlock()
	b.entered <- struct{}{}
	<-b.release
	return n
}

func (b *stallBackend) count(op string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls[op]
}

func (b *stallBackend) PublishSeq(workload.Event) (int64, error) {
	return int64(b.enter("publish") - 1), nil
}

func (b *stallBackend) Subscribe(workload.Subscription) (int, error) {
	return b.enter("subscribe") - 1, nil
}

func (b *stallBackend) Unsubscribe(int) error { return nil }
func (b *stallBackend) Close() error          { return nil }

// TestRetransmitWhileInFlight: a request the client retransmits after a
// reconnect, while the original is still inside the backend, must enter
// the backend once, and the client must get the original's reply. A
// federation router can hold a publish for seconds, so the window is real.
func TestRetransmitWhileInFlight(t *testing.T) {
	cases := []struct {
		op   string
		call func(c *transport.Conn) (int64, error)
	}{
		{"publish", func(c *transport.Conn) (int64, error) {
			return c.PublishSeq(workload.Event{Pub: 3, Point: []float64{1, 2}})
		}},
		{"subscribe", func(c *transport.Conn) (int64, error) {
			return c.Subscribe(5, space.Rect{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.op, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			srv := transport.NewServer(transport.Config{Registry: reg})
			be := newStallBackend()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln, be)
			defer srv.Close()
			c, err := transport.Dial(transport.ClientConfig{Addr: ln.Addr().String()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			type result struct {
				v   int64
				err error
			}
			done := make(chan result, 1)
			go func() {
				v, err := tc.call(c)
				done <- result{v, err}
			}()
			<-be.entered
			framesIn := reg.Scope("wire").Counter("frames_in")
			read := framesIn.Value()
			c.Bounce()

			// Once the server has read the retransmit, a ping written after
			// it is answered only when the retransmit's handler has returned.
			deadline := time.Now().Add(10 * time.Second)
			for framesIn.Value() <= read {
				if time.Now().After(deadline) {
					t.Fatal("the server never read the retransmitted request")
				}
				time.Sleep(time.Millisecond)
			}
			pinged := make(chan error, 1)
			go func() { pinged <- c.Ping(10 * time.Second) }()
			select {
			case <-be.entered:
				t.Errorf("the retransmitted %s entered the backend while the original was in flight", tc.op)
			case err := <-pinged:
				if err != nil {
					t.Fatalf("ping after the retransmit: %v", err)
				}
			}
			close(be.release)

			select {
			case r := <-done:
				if r.err != nil || r.v != 0 {
					t.Fatalf("%s returned %d, %v; want the original's reply 0, nil", tc.op, r.v, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("the %s never got a reply", tc.op)
			}
			if n := be.count(tc.op); n != 1 {
				t.Fatalf("%s entered the backend %d times, want 1", tc.op, n)
			}
		})
	}
}
