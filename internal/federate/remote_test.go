package federate

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/workload"
)

// TestRemoteShardOverWire runs a mixed federation — shard 0 a remote
// pubsub server reached over loopback TCP, shard 1 an in-process broker
// — and proves the wire v2 widenings carry the federation protocol end
// to end: PubAck.Seq feeds the router's seq translation (Unmapped must
// stay zero) and Deliver.Node attributes pumped deliveries for dedup,
// including a straddler subscribed on both sides of the cut.
func TestRemoteShardOverWire(t *testing.T) {
	g := stockWorld(t, 851).Graph
	tiles := Partition{
		{{Lo: inf(-1), Hi: 5}},
		{{Lo: 5, Hi: inf(1)}},
	}
	o := newFedObs()
	r, err := NewRouter(Config{Tiles: tiles, Observer: o.cb()})
	if err != nil {
		t.Fatal(err)
	}
	train := mkEvents(0.3, 2.5, 6.5, 9.5, 1.5, 4.5, 5.5)

	// Shard 0: a broker behind a transport server, dialled by the router.
	w0 := miniWorld(t, g, space.Interval{Lo: 0, Hi: 0.5}, space.Interval{Lo: 2, Hi: 3})
	srv := transport.NewServer(transport.Config{})
	b0, err := broker.New(miniEngine(t, w0, train), broker.WithWorkers(1), broker.WithObserver(srv.Dispatch))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln, b0) }()
	t.Cleanup(func() {
		srv.Close()
		b0.Close()
		<-serveErr
	})
	if _, err := AttachRemote(r, 0, transport.ClientConfig{Addr: ln.Addr().String()}); err != nil {
		t.Fatal(err)
	}

	// Shard 1: plain in-process broker.
	w1 := miniWorld(t, g, space.Interval{Lo: 6, Hi: 7}, space.Interval{Lo: 9, Hi: 10})
	b1, err := broker.New(miniEngine(t, w1, train), broker.WithWorkers(1), broker.WithObserver(r.ShardObserver(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Attach(1, b1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })

	idA, err := r.Subscribe(workload.Subscription{Owner: 300, Rect: space.Rect{{Lo: 1, Hi: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	idS, err := r.Subscribe(workload.Subscription{Owner: 301, Rect: space.Rect{{Lo: 4, Hi: 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Refs(idS)); got != 2 {
		t.Fatalf("straddler registered on %d shards, want 2 (remote + local)", got)
	}

	evRemote := workload.Event{Pub: 0, Point: space.Point{1.5}} // remote shard, sub A
	evMidL := workload.Event{Pub: 0, Point: space.Point{4.5}}   // remote shard, straddler
	evMidR := workload.Event{Pub: 0, Point: space.Point{5.5}}   // local shard, straddler
	for _, ev := range []workload.Event{evRemote, evMidL, evMidR} {
		if err := r.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "wire deliveries", func() bool {
		return o.count(300, evRemote) >= 1 && o.count(301, evMidL) >= 1 && o.count(301, evMidR) >= 1
	})
	time.Sleep(50 * time.Millisecond)
	for _, c := range []struct {
		node int
		ev   workload.Event
	}{{300, evRemote}, {301, evMidL}, {301, evMidR}} {
		if n := o.count(topology.NodeID(c.node), c.ev); n != 1 {
			t.Errorf("node %d got event %v %d times, want 1", c.node, c.ev.Point, n)
		}
	}
	if st := r.Stats(); st.Unmapped != 0 {
		t.Errorf("Unmapped = %d: PubAck seqs did not reach the translation table", st.Unmapped)
	}

	// Unsubscribe over the wire, then prove the remote slot is gone.
	if err := r.Unsubscribe(idA); err != nil {
		t.Fatal(err)
	}
	evAgain := workload.Event{Pub: 0, Point: space.Point{1.7}}
	if err := r.Publish(evAgain); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if n := o.count(300, evAgain); n != 0 {
		t.Errorf("unsubscribed remote slot still delivered %d copies", n)
	}
}
