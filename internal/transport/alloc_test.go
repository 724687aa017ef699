package transport_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestServerAllocsPerPublish bounds what the server allocates per event
// on the wire path: reading the publish, acking it, dispatching it to
// every session that holds the event's nodes, and writing the deliveries.
// A raw-wire client drives it from reused buffers and never decodes a
// point, so nearly every allocation counted is the server's; the one that
// remains by design is the decoded event's point. Nine owner nodes in one
// session each receive every event.
func TestServerAllocsPerPublish(t *testing.T) {
	if transport.RaceEnabled {
		t.Skip("the race detector's shadow allocations inflate the count")
	}
	const (
		owners   = 9
		credits  = 1024
		warmup   = 200
		measured = 2000
		maxPer   = 2.0
	)
	addr, _, w, _ := startServer(t, transport.Config{}, 530)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(2 * time.Minute))
	rd := wire.NewReader(raw, 0)
	wr := wire.NewWriter(raw, 0)
	send := func(frame []byte) {
		if err := wr.WriteFrame(frame); err != nil {
			t.Fatal(err)
		}
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	read := func() []byte {
		payload, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}

	send(wire.AppendHello(nil, wire.Hello{Version: wire.Version, Credits: credits}))
	if _, err := wire.DecodeHelloAck(read()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < owners; i++ {
		owner := topology.NodeID(17 + i)
		send(wire.AppendSubscribe(nil, wire.Subscribe{ReqID: int64(i + 1), Owner: owner, Rect: allSpace(w)}))
		if m, err := wire.DecodeSubscribed(read()); err != nil || m.Err != "" {
			t.Fatalf("subscribe node %d: %v %q", owner, err, m.Err)
		}
	}

	events := w.Events(64, 531)
	var frame, ackFrame []byte
	pseq := int64(owners) // pseqs continue after the subscribe request ids
	var delivered, acked int64
	// publish sends n events one at a time, each waiting for its ack and
	// for its delivery to every owner, returning credits as it goes.
	publish := func(n int) {
		for i := 0; i < n; i++ {
			pseq++
			frame = wire.AppendPublish(frame[:0], wire.Publish{PSeq: pseq, Ev: events[pseq%int64(len(events))]})
			send(frame)
			want := delivered + owners
			for gotAck := false; !gotAck || delivered < want; {
				payload := read()
				switch wire.MsgType(payload) {
				case wire.TypePubAck:
					m, err := wire.DecodePubAck(payload)
					if err != nil || m.PSeq != pseq || m.Err != "" {
						t.Fatalf("ack for pseq %d: %+v %v", pseq, m, err)
					}
					gotAck = true
				case wire.TypeDeliver:
					// Dids run from 1 without gaps, so the count is the
					// newest did; the count sits after the type byte.
					delivered += int64(payload[1]) | int64(payload[2])<<8
					if delivered-acked >= credits/4 {
						ackFrame = wire.AppendAck(ackFrame[:0], wire.Ack{Did: delivered, Credit: uint32(delivered - acked)})
						send(ackFrame)
						acked = delivered
					}
				default:
					t.Fatalf("unexpected frame type %d", wire.MsgType(payload))
				}
			}
			if delivered != want {
				t.Fatalf("event %d: %d deliveries, want %d", pseq, delivered, want)
			}
		}
	}

	publish(warmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish(measured)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.3f allocations per publish (%d events, %d owner nodes)", perEvent, measured, owners)
	if perEvent > maxPer {
		t.Fatalf("%.3f allocations per publish, want ≤ %g", perEvent, maxPer)
	}
}
