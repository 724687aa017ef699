package transport

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
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
	s.sendCtrl(ctrlMsg{typ: wire.TypeDrain})
	if s.flushed() {
		t.Fatal("a queued drain frame counts as flushed")
	}
	s.kill()
	if !s.flushed() {
		t.Fatal("a killed session's unsent control frame holds the drain open")
	}
}

// refReplyCache is the reply cache sessions kept before the ring: encoded
// frames in a map, pruned on every insert of everything more than
// ctrlReplyWindow below the newest id. It is the oracle the ring must
// answer like.
type refReplyCache struct {
	replies map[int64][]byte
	max     int64
}

func (c *refReplyCache) get(id int64) []byte { return c.replies[id] }

func (c *refReplyCache) put(id int64, frame []byte) {
	c.replies[id] = frame
	if id > c.max {
		c.max = id
	}
	for k := range c.replies {
		if k < c.max-ctrlReplyWindow {
			delete(c.replies, k)
		}
	}
}

// TestReplyCacheMatchesMap drives the session's reply ring and the old
// map cache with the same seeded traces and requires the same answer to
// every lookup: dense ids, gaps of uncached ids, jumps past the window,
// re-cached and retransmitted old ids, and ids exactly ctrlReplyWindow
// below the newest.
func TestReplyCacheMatchesMap(t *testing.T) {
	const W = ctrlReplyWindow
	for trace := int64(0); trace < 2000; trace++ {
		rng := rand.New(rand.NewSource(trace))
		s := &session{}
		ref := &refReplyCache{replies: make(map[int64][]byte)}
		next := int64(1)
		put := func(id int64) {
			m := ctrlMsg{id: id, seq: rng.Int63n(1000) - 1}
			switch rng.Intn(3) {
			case 0:
				m.typ = wire.TypePubAck
			case 1:
				m.typ = wire.TypeSubscribed
			default:
				m.typ = wire.TypeUnsubscribed
			}
			if rng.Intn(8) == 0 {
				m.err = "refused"
			}
			s.cacheCtrlReply(m)
			ref.put(id, m.appendTo(nil))
		}
		for op := 0; op < 300; op++ {
			var id int64
			switch r := rng.Intn(20); {
			case r < 8: // dense
				id = next
				next++
				put(id)
				continue
			case r < 10: // a gap: an id that is never cached
				next++
				continue
			case r < 11: // a jump past the window
				next += W + rng.Int63n(3*W)
				put(next)
				next++
				continue
			case r < 13: // an old id cached again after its retransmit
				put(next - 1 - rng.Int63n(2*W+8))
				continue
			case r < 15: // the window's edge
				id = ref.max - W - rng.Int63n(2)
			default: // a lookup anywhere near the window
				id = next - 3*W + rng.Int63n(3*W+4)
			}
			want := ref.get(id)
			got, ok := s.cachedCtrlReply(id)
			if ok != (want != nil) || ok && !bytes.Equal(got.appendTo(nil), want) {
				t.Fatalf("trace %d op %d: id %d (newest %d): ring %v %+v, map %x", trace, op, id, ref.max, ok, got, want)
			}
		}
	}
}

// churnBackend grants slots and accepts every unsubscribe.
type churnBackend struct{ slots atomic.Int64 }

func (b *churnBackend) PublishSeq(workload.Event) (int64, error) { return -1, nil }
func (b *churnBackend) Subscribe(workload.Subscription) (int, error) {
	return int(b.slots.Add(1)), nil
}
func (b *churnBackend) Unsubscribe(int) error { return nil }
func (b *churnBackend) Close() error          { return nil }

// TestDispatchDuringSessionChurn runs Dispatch while other sessions
// subscribe, unsubscribe and end, so the copy-on-write session lists are
// read and replaced at once (run it under -race). A session subscribed
// throughout gets every dispatch to its node. A churning session holds
// two slots on a node and drops them one at a time: it gets a dispatch
// made while it still holds one, and none that began after the second
// unsubscribe returned. Once every session has ended, byNode is empty.
func TestDispatchDuringSessionChurn(t *testing.T) {
	const (
		churners  = 4
		rounds    = 40
		enders    = 2
		endRounds = 60
	)
	srv := NewServer(Config{SessionBuffer: 1 << 20})
	defer srv.finishClose()
	srv.b = &churnBackend{}
	rect := space.Rect{{Lo: 0, Hi: 1}}
	numNodes := int64(1 + rounds)
	var token atomic.Uint64
	open := func() *session {
		s := newSession(srv, token.Add(1), 1)
		srv.mu.Lock()
		srv.sessions[s.token] = s
		srv.mu.Unlock()
		return s
	}
	var reqID atomic.Int64
	subscribe := func(s *session, n topology.NodeID) int64 {
		id := reqID.Add(1)
		srv.handleSubscribe(s, wire.Subscribe{ReqID: id, Owner: n, Rect: rect})
		s.mu.Lock()
		defer s.mu.Unlock()
		if r := s.ctrl[len(s.ctrl)-1]; r.id != id || r.err != "" {
			t.Errorf("subscribe %d: reply %+v", id, r)
		}
		return s.ctrl[len(s.ctrl)-1].seq
	}
	unsubscribe := func(s *session, slot int64) {
		srv.handleUnsubscribe(s, wire.Unsubscribe{ReqID: reqID.Add(1), Slot: slot})
	}

	stable := open()
	subscribe(stable, 0)

	// Every dispatch takes a number before it starts, so a number above
	// a cut taken after an unsubscribe returned names a dispatch that
	// began after it.
	var dispatched atomic.Int64
	var toStable atomic.Int64
	stop := make(chan struct{})
	var dispatchers sync.WaitGroup
	for d := 0; d < 2; d++ {
		dispatchers.Add(1)
		go func() {
			defer dispatchers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq := dispatched.Add(1)
				n := topology.NodeID(seq % numNodes)
				if n == 0 {
					toStable.Add(1)
				}
				srv.Dispatch(n, broker.Delivery{Seq: seq, Interested: true})
			}
		}()
	}

	// held[k][n] is a span of dispatch numbers during which churner k
	// held one slot on node n; cuts[k][n] is the number taken after it
	// dropped the second.
	churning := make([]*session, churners)
	held := make([]map[topology.NodeID][2]int64, churners)
	cuts := make([]map[topology.NodeID]int64, churners)
	var churn sync.WaitGroup
	for k := 0; k < churners; k++ {
		churning[k] = open()
		held[k] = make(map[topology.NodeID][2]int64)
		cuts[k] = make(map[topology.NodeID]int64)
		churn.Add(1)
		go func(k int) {
			defer churn.Done()
			s := churning[k]
			for r := 0; r < rounds; r++ {
				// All churners share round r's node, so its list holds
				// several sessions and changes while Dispatch reads it.
				n := topology.NodeID(1 + r)
				// Two slots on one node: the first unsubscribe must keep
				// the session listed, the second must unlist it.
				a, b := subscribe(s, n), subscribe(s, n)
				unsubscribe(s, a)
				// Three dispatches to n begin after lo. Two dispatchers
				// run, so one of them made two of the three, and the
				// earlier of those returned before the later began.
				lo := dispatched.Load()
				for dispatched.Load() < lo+3*numNodes {
					runtime.Gosched()
				}
				held[k][n] = [2]int64{lo, dispatched.Load()}
				unsubscribe(s, b)
				cuts[k][n] = dispatched.Load()
			}
		}(k)
	}
	for e := 0; e < enders; e++ {
		churn.Add(1)
		go func(e int) {
			defer churn.Done()
			for r := 0; r < endRounds; r++ {
				s := open()
				subscribe(s, 0)
				subscribe(s, topology.NodeID(1+(e*endRounds+r)%rounds))
				srv.endSession(s)
			}
		}(e)
	}
	churn.Wait()
	close(stop)
	dispatchers.Wait()

	stable.mu.Lock()
	if got, want := int64(len(stable.queue)), toStable.Load(); got != want {
		t.Errorf("the stable session got %d deliveries, want all %d dispatched to its node", got, want)
	}
	stable.mu.Unlock()
	for k, s := range churning {
		whileHeld := make(map[topology.NodeID]bool)
		s.mu.Lock()
		for _, d := range s.queue {
			if d.Seq > cuts[k][d.Node] {
				t.Errorf("session %d got dispatch %d for node %d, which began after its unsubscribe returned (cut %d)", k, d.Seq, d.Node, cuts[k][d.Node])
			}
			if span := held[k][d.Node]; d.Seq > span[0] && d.Seq <= span[1] {
				whileHeld[d.Node] = true
			}
		}
		s.mu.Unlock()
		for n := range held[k] {
			if !whileHeld[n] {
				t.Errorf("session %d got no dispatch for node %d while it still held a slot there", k, n)
			}
		}
	}

	srv.endSession(stable)
	for _, s := range churning {
		srv.endSession(s)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.byNode) != 0 {
		t.Errorf("byNode holds %d nodes after every session ended", len(srv.byNode))
	}
}

// TestFanoutHoldZeroAllocs pins the hold at zero allocations per copy:
// a Dispatch inside a real broker fan-out holds the session (appending it
// to the fan-out worker's reused list), and the release clears the list
// again. The cycle runs inside the observer call, where the Delivery's
// fan-out is open, and releases through Delivery.Release, the same flush
// the fan-out's end runs. The session has no connection, so no writer
// allocates beside it; the test drains its queue by hand.
func TestFanoutHoldZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	topo := topology.Eval600
	topo.Seed = 550
	g, err := topology.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{NumSubscriptions: 50, PubModes: 1, Seed: 551})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewFromWorld(w, w.Events(200, 552), core.Config{Groups: 5, CellBudget: 100})
	if err != nil {
		t.Fatal(err)
	}

	const node = topology.NodeID(17)
	srv := NewServer(Config{})
	defer srv.finishClose()
	s := newSession(srv, 1, 1024)
	srv.byNode[node] = []*session{s}
	var (
		once             sync.Once
		done             = make(chan struct{})
		allocs           float64
		held, heldOnExit bool
	)
	cycle := func(d broker.Delivery) {
		srv.Dispatch(node, d)
		s.mu.Lock()
		held = s.held
		s.mu.Unlock()
		d.Release()
		s.mu.Lock()
		heldOnExit = s.held
		s.queue = s.queue[:0]
		s.mu.Unlock()
	}
	b, err := broker.New(e, broker.WithObserver(func(n topology.NodeID, d broker.Delivery) {
		if n != node {
			return
		}
		once.Do(func() {
			defer close(done)
			for i := 0; i < 10; i++ {
				cycle(d)
			}
			allocs = testing.AllocsPerRun(200, func() { cycle(d) })
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	full := make(space.Rect, len(w.Axes))
	for i := range full {
		full[i] = space.Interval{Lo: -1e18, Hi: 1e18}
	}
	if _, err := b.Subscribe(workload.Subscription{Owner: node, Rect: full}); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(w.Events(1, 553)[0]); err != nil {
		t.Fatal(err)
	}
	<-done
	if !held || heldOnExit {
		t.Fatalf("held after Dispatch %v, after release %v; want true, false", held, heldOnExit)
	}
	if allocs != 0 {
		t.Errorf("held Dispatch plus release allocated %.2f times per copy, want 0", allocs)
	}
}
