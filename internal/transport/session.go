package transport

import (
	"net"
	"time"

	"sync"

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

	// ctrl holds encoded control frames awaiting the writer. Control
	// frames are never credit-gated: pongs, pubacks and subscribe replies
	// flow even when delivery credits are exhausted.
	ctrl [][]byte

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

	// ctrlReplies caches encoded replies by control request id, so a
	// subscribe/unsubscribe retransmitted after a reconnect returns the
	// cached reply instead of repeating the side effect. Entries more than
	// ctrlReplyWindow ids behind the newest are pruned.
	ctrlReplies map[int64][]byte
	maxCtrlReq  int64

	// slots maps broker subscription slots owned by this session to the
	// subscribing node, for cleanup and byNode maintenance.
	slots map[int64]topology.NodeID

	// flushDue/flushArmed drive flush-window coalescing via the server's
	// shared flush wheel: the writer arms the wheel on the first delivery
	// of a burst and waits; the wheel's fire sets flushDue and wakes it.
	flushDue   bool
	flushArmed bool

	// dead marks a terminated session: enqueue drops, writers exit.
	dead bool

	// expire fires SessionTimeout after a detach and ends the session;
	// attach stops it.
	expire *time.Timer
}

// ctrlReplyWindow bounds the cached control replies per session.
const ctrlReplyWindow = 128

func newSession(srv *Server, token uint64, credits uint32) *session {
	s := &session{
		srv:         srv,
		token:       token,
		credits:     int64(credits),
		nextDid:     1,
		pubWin:      wire.NewWindow(srv.cfg.PubDedupWindow),
		ctrlReplies: make(map[int64][]byte),
		slots:       make(map[int64]topology.NodeID),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue adds one delivery for this session, assigning its did. It
// blocks while the session's buffer is full and the session is alive —
// the backpressure that chains a slow subscriber through the broker's
// inboxes to health.Admission at the publish edge. Deliveries for dead
// sessions are dropped (the subscriber is gone).
func (s *session) enqueue(d wire.Deliver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stalled := false
	for !s.dead && len(s.queue)+len(s.unacked) >= s.srv.cfg.SessionBuffer {
		if !stalled {
			stalled = true
			s.srv.met.dispatchStalls.Inc()
		}
		s.cond.Wait()
	}
	if s.dead {
		return
	}
	d.Did = s.nextDid
	s.nextDid++
	s.queue = append(s.queue, d)
	s.cond.Broadcast()
}

// sendCtrl queues one encoded control frame and wakes the writer. Control
// frames for dead sessions are dropped.
func (s *session) sendCtrl(frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return
	}
	s.ctrl = append(s.ctrl, frame)
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

// cachedCtrlReply returns the cached reply for a retransmitted control
// request id, or nil for a fresh id.
func (s *session) cachedCtrlReply(reqID int64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ctrlReplies[reqID]
}

// cacheCtrlReply remembers a control reply for retransmission dedup,
// pruning ids that have fallen ctrlReplyWindow behind.
func (s *session) cacheCtrlReply(reqID int64, frame []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrlReplies[reqID] = frame
	if reqID > s.maxCtrlReq {
		s.maxCtrlReq = reqID
	}
	for id := range s.ctrlReplies {
		if id < s.maxCtrlReq-ctrlReplyWindow {
			delete(s.ctrlReplies, id)
		}
	}
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
	s.ctrl = nil // stale control replies are retransmission-deduped anyway
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
// deliveries that share a flush window into one batch frame and all
// frames of a wake into one buffered flush. Coalescing deadlines come
// from the server's shared flush wheel, not a per-writer sleep: the loop
// arms the wheel on the first delivery of a burst and waits until the
// window fires, the batch fills, or a control frame needs the wire. It
// exits when the connection is replaced, the session dies, or a write
// fails.
func (s *session) writeLoop(conn net.Conn, w *wire.Writer, gen int) {
	var scratch []byte
	met := s.srv.met
	for {
		s.mu.Lock()
		for s.connGen == gen && !s.dead && len(s.ctrl) == 0 && !s.deliveriesReadyLocked() {
			if len(s.queue) > 0 && s.credits > 0 && !s.flushArmed {
				// First delivery of a burst: give followers one window to
				// coalesce before paying for a flush.
				s.flushArmed = true
				s.srv.wheel.arm(s)
			}
			s.cond.Wait()
		}
		if s.connGen != gen || s.dead {
			s.mu.Unlock()
			return
		}
		ctrl := s.ctrl
		s.ctrl = nil
		var batch []wire.Deliver
		if s.deliveriesReadyLocked() {
			batch = s.takeBatchLocked()
			s.flushDue = false
		}
		if len(batch) == 0 && len(s.queue) > 0 && s.credits <= 0 {
			met.creditStalls.Inc()
		}
		s.mu.Unlock()

		t0 := time.Now()
		frames := 0
		err := error(nil)
		for _, f := range ctrl {
			if err = w.WriteFrame(f); err != nil {
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
// the wire now: credits available and either no flush window, the window
// already fired (flushDue), or a full batch is waiting. Caller holds mu.
func (s *session) deliveriesReadyLocked() bool {
	if len(s.queue) == 0 || s.credits <= 0 {
		return false
	}
	return s.srv.cfg.FlushWindow <= 0 || s.flushDue || len(s.queue) >= s.srv.cfg.MaxBatch
}

// flushFire is the wheel's callback: the session's flush window elapsed.
func (s *session) flushFire() {
	s.mu.Lock()
	s.flushDue = true
	s.flushArmed = false
	s.cond.Broadcast()
	s.mu.Unlock()
}

// takeBatchLocked moves up to credits deliveries from queue to unacked
// and returns them. Caller holds mu.
func (s *session) takeBatchLocked() []wire.Deliver {
	n := len(s.queue)
	if int64(n) > s.credits {
		n = int(s.credits)
	}
	if n <= 0 {
		return nil
	}
	batch := make([]wire.Deliver, n)
	copy(batch, s.queue[:n])
	s.queue = append(s.queue[:0], s.queue[n:]...)
	s.credits -= int64(n)
	s.unacked = append(s.unacked, batch...)
	return batch
}
