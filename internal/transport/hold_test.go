package transport_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// dialNodes dials cfg.Addr and subscribes nodes first, first+1, … (n of
// them) to the whole space on that one connection, so one event fans out
// to n nodes of one session.
func dialNodes(t *testing.T, cfg transport.ClientConfig, w *workload.World, first topology.NodeID, n int) *transport.Conn {
	t.Helper()
	c, err := transport.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for i := 0; i < n; i++ {
		if _, err := c.Subscribe(first+topology.NodeID(i), allSpace(w)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// recvN receives n deliveries from c, failing the test if they take
// longer than wait.
func recvN(t *testing.T, c *transport.Conn, n int, wait time.Duration) []wire.Deliver {
	t.Helper()
	got := make(chan []wire.Deliver, 1)
	go func() {
		var ds []wire.Deliver
		for len(ds) < n {
			d, ok := c.Recv()
			if !ok {
				break
			}
			ds = append(ds, d)
		}
		got <- ds
	}()
	select {
	case ds := <-got:
		if len(ds) != n {
			t.Fatalf("connection closed after %d/%d deliveries: %v", len(ds), n, c.Err())
		}
		return ds
	case <-time.After(wait):
		t.Fatalf("%d deliveries did not arrive within %v", n, wait)
		return nil
	}
}

// TestFanoutOneFramePerSession pins the hold's contract: every copy one
// fan-out hands a session leaves in one deliver frame, because the
// session's writer waits for the fan-out to return rather than writing
// the first copy alone.
func TestFanoutOneFramePerSession(t *testing.T) {
	const nodes = 12
	reg := telemetry.NewRegistry()
	addr, _, w, _ := startServer(t, transport.Config{Registry: reg, MaxBatch: 64}, 540)
	c := dialNodes(t, transport.ClientConfig{Addr: addr}, w, 17, nodes)
	if err := c.Publish(w.Events(1, 541)[0]); err != nil {
		t.Fatal(err)
	}
	recvN(t, c, nodes, 10*time.Second)
	batches := reg.Scope("wire").Histogram("deliver_batch_size", telemetry.Buckets{}).Snapshot()
	if batches.Count != 1 || batches.Sum != nodes {
		t.Fatalf("%d copies left in %d deliver frames (%v deliveries), want 1 frame of %d",
			nodes, batches.Count, batches.Sum, nodes)
	}
}

// TestHeldFanoutDrainsFullBuffer pins the full-buffer edge of the hold:
// a fan-out with more copies for one session than its SessionBuffer
// blocks on that session, and the session's writer must not wait for the
// fan-out to return, or neither ever moves. The enqueue about to block
// lets go of the hold, the writer drains, the client's acks free the
// buffer, and every copy arrives.
func TestHeldFanoutDrainsFullBuffer(t *testing.T) {
	const nodes = 16
	addr, _, w, _ := startServer(t, transport.Config{SessionBuffer: 4, MaxBatch: 64}, 542)
	// Four credits: the client acks every second delivery it consumes.
	c := dialNodes(t, transport.ClientConfig{Addr: addr, Credits: 4}, w, 17, nodes)
	if err := c.Publish(w.Events(1, 543)[0]); err != nil {
		t.Fatal(err)
	}
	seen := map[topology.NodeID]bool{}
	for _, d := range recvN(t, c, nodes, 10*time.Second) {
		seen[d.Node] = true
	}
	if len(seen) != nodes {
		t.Fatalf("copies reached %d distinct nodes, want %d", len(seen), nodes)
	}
}

// TestDispatchOutsideFanoutIsNotHeld pins the other edge: a Delivery
// built outside any broker fan-out — a remote shard's pump, a test — has
// no fan-out to release the session, so Dispatch must not hold it, and
// the copy goes out at once.
func TestDispatchOutsideFanoutIsNotHeld(t *testing.T) {
	addr, srv, w, _ := startServer(t, transport.Config{}, 544)
	const node = topology.NodeID(17)
	c := dialNodes(t, transport.ClientConfig{Addr: addr}, w, node, 1)
	srv.Dispatch(node, broker.Delivery{Event: w.Events(1, 545)[0], Seq: 1, Group: -1, Interested: true})
	d := recvN(t, c, 1, 5*time.Second)[0]
	if d.Node != node || d.Seq != 1 {
		t.Fatalf("got node %d seq %d, want node %d seq 1", d.Node, d.Seq, node)
	}
}

// TestBlockedFanoutReleasesOtherSessions pins the hold's third edge: a
// fan-out that blocks on one subscriber's full buffer must first let go
// of the other sessions it holds, or a stuck subscriber would keep back
// copies already handed to healthy ones for as long as it stays stuck.
// The observer hands every event to a healthy session and then to a
// session whose client never reads; the fifth event finds that
// session's buffer full, and the healthy one must still get it.
func TestBlockedFanoutReleasesOtherSessions(t *testing.T) {
	const healthy, stuck = topology.NodeID(17), topology.NodeID(18)
	e, w := testWorld(t, 546)
	srv := transport.NewServer(transport.Config{SessionBuffer: 4})
	b, err := broker.New(e, broker.WithWorkers(1), broker.WithObserver(func(n topology.NodeID, d broker.Delivery) {
		if n == healthy {
			srv.Dispatch(healthy, d)
			srv.Dispatch(stuck, d)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln, b)
	defer b.Close()
	defer srv.Close() // first: ends the stuck session, so the fan-out unblocks
	addr := ln.Addr().String()
	dialNodes(t, transport.ClientConfig{Addr: addr, Credits: 4}, w, stuck, 1)
	// Four credits here too: the healthy client acks every second
	// delivery, so its own buffer never fills.
	c := dialNodes(t, transport.ClientConfig{Addr: addr, Credits: 4}, w, healthy, 1)
	for _, ev := range w.Events(5, 547) {
		if err := c.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	recvN(t, c, 5, 5*time.Second)
}
