package transport

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/topology"
	"repro/internal/wire"
)

// session is one client's server-side state. It outlives individual TCP
// connections: when a connection drops, the session is retained for
// SessionTimeout so the client can resume it, and every delivery the
// client has not acknowledged is re-sent on resume (the client's dedup
// window suppresses the copies that already arrived). All mutable state
// is guarded by mu; cond signals the connection writer.
type session struct {
	srv   *Server
	token uint64

	mu   sync.Mutex
	cond *sync.Cond

	// conn is the live connection (nil while disconnected); connGen
	// increments on every attach/detach so a stale writer or reader
	// observes the generation change and exits.
	conn    net.Conn
	connGen int

	// ctrl holds control frames awaiting the writer, as values: the writer
	// encodes them into its own buffer and hands back the slice it drained
	// as the next queue, so the two slices alternate and neither re-grows.
	// Control frames are never credit-gated: pongs, pubacks and subscribe
	// replies flow even when delivery credits are exhausted.
	ctrl []ctrlMsg

	// queue holds deliveries not yet written (did-ascending); unacked
	// holds deliveries written but not yet acknowledged. On resume the
	// unacked tail above the client's watermark is requeued in front of
	// queue, so the did order on the wire is always ascending.
	queue   []wire.Deliver
	unacked []wire.Deliver

	// credits is the client-granted delivery window; the writer consumes
	// one per delivery and acks/credit frames replenish it.
	credits int64

	// nextDid numbers deliveries per session, starting at 1 — the resume
	// watermark the client reports back in its hello.
	nextDid int64

	// pubWin dedups client publish sequence numbers, making publish
	// retransmission after a reconnect idempotent.
	pubWin *wire.Window

	// replies caches control replies by request id, so a publish,
	// subscribe or unsubscribe retransmitted after a reconnect returns the
	// cached reply instead of repeating the side effect. It is a ring
	// indexed by id modulo its length, twice ctrlReplyWindow: every id the
	// cache still answers for, at most ctrlReplyWindow below maxCtrlReq,
	// has a slot of its own.
	replies    [2 * ctrlReplyWindow]ctrlMsg
	maxCtrlReq int64

	// inflight lists the publish and control request ids whose handler is
	// still inside the backend. A retransmit of one of them, read on a new
	// connection while the old reader still waits, is dropped: the
	// original caches and queues its reply when it returns. Each reader has
	// at most one request in flight, so the list stays short.
	inflight []int64

	// slots maps broker subscription slots owned by this session to the
	// subscribing node, for cleanup and byNode maintenance.
	slots map[int64]topology.NodeID

	// nodeRefs counts this session's slots per subscribing node; the
	// session is in srv.byNode[n] exactly while nodeRefs[n] > 0. Guarded
	// by srv.mu, not mu.
	nodeRefs map[topology.NodeID]int

	// held keeps the writer from sending a partial batch while a broker
	// fan-out is still handing this session copies of one event: the
	// enqueue that set it registered the session with that fan-out
	// (broker.Delivery.Hold), whose end calls Flush.
	held bool

	// dead marks a terminated session: enqueue drops, writers exit.
	dead bool

	// expire fires SessionTimeout after a detach and ends the session;
	// attach stops it.
	expire *time.Timer
}

// ctrlReplyWindow bounds the cached control replies per session.
const ctrlReplyWindow = 128

// ctrlMsg is one control frame awaiting the writer. id is the request id,
// publish sequence or ping nonce; seq is the broker seq of a pubAck or
// the slot of a subscribed reply; err is a reply's error text.
type ctrlMsg struct {
	typ wire.Type
	id  int64
	seq int64
	err string
}

// appendTo encodes m as a frame payload onto b.
func (m ctrlMsg) appendTo(b []byte) []byte {
	switch m.typ {
	case wire.TypePubAck:
		return wire.AppendPubAck(b, wire.PubAck{PSeq: m.id, Seq: m.seq, Err: m.err})
	case wire.TypeSubscribed:
		return wire.AppendSubscribed(b, wire.Subscribed{ReqID: m.id, Slot: m.seq, Err: m.err})
	case wire.TypeUnsubscribed:
		return wire.AppendUnsubscribed(b, wire.Unsubscribed{ReqID: m.id, Err: m.err})
	case wire.TypePong:
		return wire.AppendPong(b, uint64(m.id))
	case wire.TypeDrain:
		return wire.AppendDrain(b)
	case wire.TypeGoodbye:
		return wire.AppendGoodbye(b)
	}
	panic(fmt.Sprintf("transport: no control frame of type %d", m.typ))
}

func newSession(srv *Server, token uint64, credits uint32) *session {
	s := &session{
		srv:      srv,
		token:    token,
		credits:  int64(credits),
		nextDid:  1,
		pubWin:   wire.NewWindow(wire.DedupWindow),
		slots:    make(map[int64]topology.NodeID),
		nodeRefs: make(map[topology.NodeID]int),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue adds one delivery for this session, assigning its did, and
// holds the writer until d's fan-out returns, so that the event's copies
// for this session leave in one frame. It blocks while the session's
// buffer is full and the session is alive — the backpressure that chains
// a slow subscriber through the broker's fan-out workers to
// health.Admission at the publish edge. Before it blocks it lets go of
// everything d's fan-out holds, this session included: the writer must
// drain to the client whose acks unblock the enqueue, and no other
// session's copies should wait on this one. Deliveries for dead sessions
// are dropped (the subscriber is gone).
func (s *session) enqueue(wd wire.Deliver, d broker.Delivery) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fullLocked() {
		s.mu.Unlock()
		d.Release()
		s.mu.Lock()
		s.held = false
		s.wakeWriterLocked()
	}
	stalled := false
	for s.fullLocked() {
		if !stalled {
			stalled = true
			s.srv.met.dispatchStalls.Inc()
		}
		s.cond.Wait()
	}
	if s.dead {
		return
	}
	wd.Did = s.nextDid
	s.nextDid++
	s.queue = append(s.queue, wd)
	if !s.held {
		s.held = d.Hold(s)
	}
	s.wakeWriterLocked()
}

// fullLocked reports whether a live session's buffer has no room for
// another delivery. Caller holds mu.
func (s *session) fullLocked() bool {
	return !s.dead && len(s.queue)+len(s.unacked) >= s.srv.cfg.SessionBuffer
}

// Flush releases a held session (broker.Flusher): the fan-out that
// queued its copies has returned, so the writer may send them.
func (s *session) Flush() {
	s.mu.Lock()
	s.held = false
	s.wakeWriterLocked()
	s.mu.Unlock()
}

// wakeWriterLocked wakes the writer when it has deliveries to send; a
// wake it could only answer by waiting again is skipped. Caller holds mu.
func (s *session) wakeWriterLocked() {
	if s.deliveriesReadyLocked() {
		s.cond.Broadcast()
	}
}

// sendCtrl queues one control frame and wakes the writer. Control frames
// for dead sessions are dropped.
func (s *session) sendCtrl(m ctrlMsg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sendCtrlLocked(m)
}

// sendCtrlLocked is sendCtrl with mu held.
func (s *session) sendCtrlLocked(m ctrlMsg) {
	if s.dead {
		return
	}
	s.ctrl = append(s.ctrl, m)
	s.cond.Broadcast()
}

// ack applies a cumulative delivery acknowledgement: everything with did
// ≤ upTo leaves unacked, and credit delivery credits return to the pool.
func (s *session) ack(upTo int64, credit uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := 0
	for i < len(s.unacked) && s.unacked[i].Did <= upTo {
		i++
	}
	if i > 0 {
		s.unacked = append(s.unacked[:0], s.unacked[i:]...)
	}
	if credit > 0 {
		s.credits += int64(credit)
	}
	s.cond.Broadcast()
}

// grantCredit returns bare credits to the pool.
func (s *session) grantCredit(n uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.credits += int64(n)
	s.cond.Broadcast()
}

// cachedCtrlReply returns the cached reply for a retransmitted request
// id. ok is false for an id never cached, and for one more than
// ctrlReplyWindow below the newest cached id. Caller holds mu.
func (s *session) cachedCtrlReply(id int64) (m ctrlMsg, ok bool) {
	if id < s.maxCtrlReq-ctrlReplyWindow {
		return ctrlMsg{}, false
	}
	m = s.replies[replySlot(id)]
	return m, m.typ != 0 && m.id == id
}

// cacheCtrlReply remembers a reply for retransmission dedup. A reply
// already more than ctrlReplyWindow below the newest is not kept. The
// slot it takes last held an id at least twice the window away, which
// has fallen out of the window either way. Caller holds mu.
func (s *session) cacheCtrlReply(m ctrlMsg) {
	if m.id > s.maxCtrlReq {
		s.maxCtrlReq = m.id
	}
	if m.id >= s.maxCtrlReq-ctrlReplyWindow {
		s.replies[replySlot(m.id)] = m
	}
}

// replySlot maps a request id to its slot in the reply ring.
func replySlot(id int64) int {
	return int(uint64(id) % (2 * ctrlReplyWindow))
}

// claimLocked decides whether a request read from the wire needs its
// handler. A request with a cached reply gets that reply again; one whose
// original is still in flight is dropped, since the original answers when
// it returns. Otherwise the id is marked in flight and the caller must
// hand it to finishLocked. Caller holds mu.
func (s *session) claimLocked(id int64) bool {
	if m, ok := s.cachedCtrlReply(id); ok {
		s.sendCtrlLocked(m)
		return false
	}
	if slices.Contains(s.inflight, id) {
		return false
	}
	s.inflight = append(s.inflight, id)
	return true
}

// claim is claimLocked, taking mu.
func (s *session) claim(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.claimLocked(id)
}

// finishLocked ends a request claimed by claimLocked: it clears the id
// from the in-flight list, caches the reply when cache is set, and queues
// it. Clearing and caching in one section means a retransmit either finds
// the id in flight or finds its reply. Caller holds mu.
func (s *session) finishLocked(reply ctrlMsg, cache bool) {
	if i := slices.Index(s.inflight, reply.id); i >= 0 {
		s.inflight = slices.Delete(s.inflight, i, i+1)
	}
	if cache {
		s.cacheCtrlReply(reply)
	}
	s.sendCtrlLocked(reply)
}

// finish is finishLocked, taking mu.
func (s *session) finish(reply ctrlMsg, cache bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finishLocked(reply, cache)
}

// attach binds a new connection to the session, requeues the unacked
// deliveries the client has not seen (did > lastDid is kept, the rest is
// dropped as acknowledged), resets the credit pool to the client's fresh
// grant, and starts this connection's writer. Any previous connection is
// kicked. Returns the connection generation for the reader to watch.
func (s *session) attach(conn net.Conn, w *wire.Writer, lastDid int64, credits uint32) int {
	s.mu.Lock()
	if s.expire != nil {
		s.expire.Stop()
		s.expire = nil
	}
	old := s.conn
	s.connGen++
	gen := s.connGen
	s.conn = conn

	// Drop acknowledged deliveries; requeue the rest in front, preserving
	// did order. The client's dedup window suppresses any copy that
	// arrived but whose ack was lost.
	keep := s.unacked[:0]
	for _, d := range s.unacked {
		if d.Did > lastDid {
			keep = append(keep, d)
		}
	}
	if len(keep) > 0 {
		requeued := make([]wire.Deliver, 0, len(keep)+len(s.queue))
		requeued = append(requeued, keep...)
		requeued = append(requeued, s.queue...)
		s.queue = requeued
		s.srv.met.redeliveries.Add(int64(len(keep)))
	}
	s.unacked = s.unacked[:0]
	s.credits = int64(credits)
	// Queued replies were meant for the old connection. The client
	// retransmits every request it holds no reply for, and the reply cache
	// or the in-flight list answers each one on this connection.
	s.ctrl = nil
	s.cond.Broadcast()
	s.mu.Unlock()

	if old != nil {
		old.Close()
	}
	go s.writeLoop(conn, w, gen)
	return gen
}

// detach drops the session's connection if it is still the given
// generation, and arms the expiry timer. Safe to call from both the
// reader (read error) and the writer (write error); only the first wins.
func (s *session) detach(gen int) {
	s.mu.Lock()
	if s.dead || s.connGen != gen {
		s.mu.Unlock()
		return
	}
	conn := s.conn
	s.conn = nil
	s.connGen++
	if s.expire == nil && s.srv.cfg.SessionTimeout > 0 {
		s.expire = time.AfterFunc(s.srv.cfg.SessionTimeout, func() {
			s.srv.met.expired.Inc()
			s.srv.endSession(s)
		})
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// kill marks the session dead and wakes everyone blocked on it. The
// server removes it from its tables in endSession.
func (s *session) kill() (conn net.Conn, slots []int64) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil, nil
	}
	s.dead = true
	conn = s.conn
	s.conn = nil
	s.connGen++
	if s.expire != nil {
		s.expire.Stop()
		s.expire = nil
	}
	for slot := range s.slots {
		slots = append(slots, slot)
	}
	s.queue = nil
	s.unacked = nil
	// No writer will ever send these; a drain's control frame queued just
	// before the client's goodbye would otherwise keep flushed false.
	s.ctrl = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	return conn, slots
}

// flushed reports whether every delivery and control frame handed to this
// session has been written to its connection. Unacked deliveries don't
// block a drain: TCP ordering means a client that reads the goodbye has
// already read every deliver frame before it.
func (s *session) flushed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && len(s.ctrl) == 0
}

// writeLoop is the per-connection writer goroutine: it drains control
// frames unconditionally and deliveries while credits last, coalescing
// the deliveries queued on one wake into batch frames and all frames of a
// wake into one buffered flush. While a fan-out holds the session it
// waits until the fan-out returns, the batch fills, or a control frame
// needs the wire. It exits when the connection is replaced, the session
// dies, or a write fails.
func (s *session) writeLoop(conn net.Conn, w *wire.Writer, gen int) {
	var (
		scratch []byte         // the frame payload being encoded
		ctrl    []ctrlMsg      // control frames taken on this wake
		batch   []wire.Deliver // deliveries taken on this wake
	)
	met := s.srv.met
	for {
		s.mu.Lock()
		for s.connGen == gen && !s.dead && len(s.ctrl) == 0 && !s.deliveriesReadyLocked() {
			s.cond.Wait()
		}
		if s.connGen != gen || s.dead {
			s.mu.Unlock()
			return
		}
		// The slice drained on the last wake becomes the next queue.
		ctrl, s.ctrl = s.ctrl, ctrl[:0]
		batch = batch[:0]
		if s.deliveriesReadyLocked() {
			batch = s.takeBatchLocked(batch)
		}
		if len(batch) == 0 && len(s.queue) > 0 && s.credits <= 0 {
			met.creditStalls.Inc()
		}
		s.mu.Unlock()

		t0 := time.Now()
		frames := 0
		err := error(nil)
		for _, m := range ctrl {
			scratch = m.appendTo(scratch[:0])
			if err = w.WriteFrame(scratch); err != nil {
				break
			}
			frames++
		}
		if err == nil && len(batch) > 0 {
			// Split the batch into frames of at most MaxBatch deliveries.
			for off := 0; off < len(batch) && err == nil; off += s.srv.cfg.MaxBatch {
				end := off + s.srv.cfg.MaxBatch
				if end > len(batch) {
					end = len(batch)
				}
				scratch = wire.AppendDeliverBatch(scratch[:0], batch[off:end])
				err = w.WriteFrame(scratch)
				frames++
				met.batchSize.Observe(float64(end - off))
			}
			met.deliveries.Add(int64(len(batch)))
		}
		if err == nil {
			met.flushBytes.Observe(float64(w.Buffered()))
			met.flushFrames.Observe(float64(frames))
			err = w.Flush()
		}
		met.writeNs.ObserveDuration(time.Since(t0))
		met.framesOut.Add(int64(frames))
		if err != nil {
			s.detach(gen)
			return
		}
	}
}

// deliveriesReadyLocked reports whether queued deliveries should go to
// the wire now: credits available and either no fan-out holds the session
// or a full batch is waiting. Caller holds mu.
func (s *session) deliveriesReadyLocked() bool {
	if len(s.queue) == 0 || s.credits <= 0 {
		return false
	}
	return !s.held || len(s.queue) >= s.srv.cfg.MaxBatch
}

// takeBatchLocked moves up to credits deliveries from queue to unacked
// and appends them to batch, the writer's reused buffer. Caller holds mu.
func (s *session) takeBatchLocked(batch []wire.Deliver) []wire.Deliver {
	n := len(s.queue)
	if int64(n) > s.credits {
		n = int(s.credits)
	}
	if n <= 0 {
		return batch
	}
	batch = append(batch, s.queue[:n]...)
	s.unacked = append(s.unacked, s.queue[:n]...)
	s.queue = append(s.queue[:0], s.queue[n:]...)
	s.credits -= int64(n)
	return batch
}
