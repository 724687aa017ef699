// Package transport carries the broker over TCP: a Server that wraps a
// broker.Broker behind the wire protocol, and a client Conn that speaks
// it. The transport extends the in-process guarantees end to end —
// credit-based flow control chains a slow remote subscriber back through
// the broker's bounded queues to admission control at the publish edge,
// and session resumption plus both-direction dedup windows preserve
// exactly-once delivery across connection drops.
package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ErrServerClosed is returned by Serve after Shutdown or Close.
var ErrServerClosed = errors.New("transport: server closed")

// Backend is the decision fabric a Server bridges to the wire: the
// in-process broker.Broker is the canonical implementation, and a
// federation router (internal/federate) that partitions the subscription
// space across shards satisfies the same surface, so one daemon can serve
// either. Deliveries flow the other way — register the Server's Dispatch
// as the backend's delivery observer.
type Backend interface {
	// PublishSeq admits one event, reporting the publication sequence it
	// consumed (-1 when it never entered the backend's history).
	PublishSeq(ev workload.Event) (int64, error)
	// Subscribe registers an interest rectangle and returns its slot.
	Subscribe(s workload.Subscription) (int, error)
	// Unsubscribe releases a slot returned by Subscribe.
	Unsubscribe(slot int) error
	// Close drains and stops the backend.
	Close() error
}

// Backend conformance is pinned where the implementations live; the
// broker's is asserted here to keep the contract obvious.
var _ Backend = (*broker.Broker)(nil)

// Config tunes a Server. The zero value is usable: every field has a
// default applied by NewServer.
type Config struct {
	// TLS, when set, wraps every accepted connection.
	TLS *tls.Config
	// Registry receives transport telemetry under scope "wire"; nil uses
	// a private registry.
	Registry *telemetry.Registry
	// MaxBatch caps deliveries per deliver frame (default 64).
	MaxBatch int
	// MaxFrame caps accepted frame payloads (default wire.DefaultMaxFrame).
	MaxFrame int
	// SessionBuffer bounds queued-plus-unacked deliveries per session;
	// beyond it the broker's dispatch blocks — the backpressure edge
	// (default 1024).
	SessionBuffer int
	// SessionTimeout is how long a disconnected session awaits resumption
	// before its subscriptions are dropped (default 10s).
	SessionTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReplHandler, when set, receives connections whose first frame is a
	// replication hello (a follower dialing in), letting client traffic
	// and journal shipping share one listener. The handler owns the
	// connection and blocks until the replication session ends — wire a
	// replicate.Leader's Accept here. Shutdown waits for it like any
	// other connection, so stop the leader first.
	ReplHandler func(conn net.Conn, r *wire.Reader, w *wire.Writer, hello wire.ReplHello)
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = wire.DefaultMaxFrame
	}
	if c.SessionBuffer <= 0 {
		c.SessionBuffer = 1024
	}
	if c.SessionTimeout == 0 {
		c.SessionTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.NewRegistry()
	}
}

// Server accepts wire-protocol connections and bridges them to a
// broker.Broker. Construct with NewServer, register Dispatch as the
// broker's observer, then call Serve.
type Server struct {
	cfg Config
	met *metrics

	mu        sync.Mutex
	b         Backend
	ln        net.Listener
	sessions  map[uint64]*session
	nextToken uint64
	draining  bool
	closed    bool

	// byNode lists the sessions holding a slot per subscribing node,
	// under mu. A list is never changed in place: subscribe and
	// unsubscribe install a new one, so Dispatch can range over the list
	// it read after releasing mu.
	byNode map[topology.NodeID][]*session

	wg sync.WaitGroup
}

// NewServer builds a Server from cfg. The broker is supplied at Serve so
// the usual construction order is NewServer → broker.New(engine,
// broker.WithObserver(srv.Dispatch), ...) → srv.Serve(ln, b).
func NewServer(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:      cfg,
		met:      newMetrics(cfg.Registry, "wire"),
		sessions: make(map[uint64]*session),
		byNode:   make(map[topology.NodeID][]*session),
	}
}

// Telemetry returns the registry transport metrics land in.
func (srv *Server) Telemetry() *telemetry.Registry { return srv.cfg.Registry }

// Dispatch is the broker observer: it forwards an accepted delivery to
// every session subscribed as node n. It runs on the broker's fan-out
// workers and blocks when a session's buffer is full, which is exactly
// the backpressure chain the transport exists to extend.
func (srv *Server) Dispatch(n topology.NodeID, d broker.Delivery) {
	srv.mu.Lock()
	targets := srv.byNode[n]
	srv.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	wd := wire.Deliver{
		Node:       n,
		Seq:        d.Seq,
		Ev:         d.Event,
		Method:     byte(d.Method),
		Group:      int32(d.Group),
		Interested: d.Interested,
	}
	for _, s := range targets {
		s.enqueue(wd, d)
	}
}

// Serve accepts connections on ln, speaking to b, until Shutdown or
// Close. It always returns a non-nil error; after a graceful stop that
// error is ErrServerClosed.
func (srv *Server) Serve(ln net.Listener, b Backend) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return ErrServerClosed
	}
	srv.b = b
	srv.ln = ln
	srv.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			stopped := srv.draining || srv.closed
			srv.mu.Unlock()
			if stopped {
				srv.wg.Wait()
				return ErrServerClosed
			}
			return fmt.Errorf("transport: accept: %w", err)
		}
		srv.met.connsAccepted.Inc()
		srv.wg.Add(1)
		go srv.handle(conn)
	}
}

// handle owns one accepted connection: handshake, then the read loop.
func (srv *Server) handle(raw net.Conn) {
	defer srv.wg.Done()
	srv.met.connsActive.Add(1)
	defer srv.met.connsActive.Add(-1)

	conn := net.Conn(&countingConn{Conn: raw, in: srv.met.bytesIn, out: srv.met.bytesOut})
	if srv.cfg.TLS != nil {
		conn = tls.Server(conn, srv.cfg.TLS)
	}
	r := wire.NewReader(conn, srv.cfg.MaxFrame)
	w := wire.NewWriter(conn, srv.cfg.MaxFrame)

	sess, gen, ok := srv.handshake(conn, r, w)
	if !ok {
		conn.Close()
		return
	}
	srv.readLoop(sess, gen, conn, r)
}

// writeDirect writes one frame outside any session writer — used during
// the handshake, before a writer goroutine exists.
func writeDirect(w *wire.Writer, frame []byte) error {
	if err := w.WriteFrame(frame); err != nil {
		return err
	}
	return w.Flush()
}

// handshake reads the client hello and either binds the connection to a
// (new or resumed) session or rejects it with an error frame.
func (srv *Server) handshake(conn net.Conn, r *wire.Reader, w *wire.Writer) (*session, int, bool) {
	conn.SetDeadline(time.Now().Add(srv.cfg.HandshakeTimeout))
	defer conn.SetDeadline(time.Time{})

	payload, err := r.ReadFrame()
	if err != nil {
		srv.met.badFrames.Inc()
		return nil, 0, false
	}
	if srv.cfg.ReplHandler != nil && wire.MsgType(payload) == wire.TypeReplHello {
		rh, err := wire.DecodeReplHello(payload)
		if err != nil {
			srv.met.badFrames.Inc()
			return nil, 0, false
		}
		conn.SetDeadline(time.Time{})
		// Ownership transfers: the handler blocks for the replication
		// session's lifetime and closes the conn (handle's close after the
		// false return is a harmless double close).
		srv.cfg.ReplHandler(conn, r, w, rh)
		return nil, 0, false
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		srv.met.badFrames.Inc()
		writeDirect(w, wire.AppendError(nil, wire.ErrorMsg{Code: wire.CodeBadFrame, Msg: err.Error()}))
		return nil, 0, false
	}
	if hello.Version != wire.Version {
		srv.met.versionReject.Inc()
		writeDirect(w, wire.AppendError(nil, wire.ErrorMsg{
			Code: wire.CodeVersion,
			Msg:  fmt.Sprintf("server speaks wire v%d, client sent v%d", wire.Version, hello.Version),
		}))
		return nil, 0, false
	}

	srv.mu.Lock()
	if srv.draining || srv.closed {
		srv.mu.Unlock()
		writeDirect(w, wire.AppendError(nil, wire.ErrorMsg{Code: wire.CodeDraining, Msg: "server draining"}))
		return nil, 0, false
	}
	var sess *session
	resumed := false
	if hello.Session == 0 {
		srv.nextToken++
		sess = newSession(srv, srv.nextToken, hello.Credits)
		srv.sessions[sess.token] = sess
		srv.met.sessionsActive.Add(1)
	} else {
		sess = srv.sessions[hello.Session]
		if sess == nil {
			srv.mu.Unlock()
			writeDirect(w, wire.AppendError(nil, wire.ErrorMsg{Code: wire.CodeSession, Msg: "unknown or expired session"}))
			return nil, 0, false
		}
		resumed = true
		srv.met.resumes.Inc()
	}
	srv.mu.Unlock()

	ack := wire.AppendHelloAck(nil, wire.HelloAck{Version: wire.Version, Session: sess.token, Resumed: resumed})
	if err := writeDirect(w, ack); err != nil {
		if !resumed {
			srv.endSession(sess)
		}
		return nil, 0, false
	}
	gen := sess.attach(conn, w, hello.LastDid, hello.Credits)
	return sess, gen, true
}

// readLoop dispatches inbound frames for one connection until it fails
// or the client says goodbye. Bad frames drop the connection but keep
// the session resumable.
func (srv *Server) readLoop(sess *session, gen int, conn net.Conn, r *wire.Reader) {
	for {
		payload, err := r.ReadFrame()
		if err != nil {
			if errors.Is(err, wire.ErrOversize) || errors.Is(err, wire.ErrChecksum) || errors.Is(err, wire.ErrTruncated) {
				srv.met.badFrames.Inc()
			}
			sess.detach(gen)
			return
		}
		srv.met.framesIn.Inc()
		switch wire.MsgType(payload) {
		case wire.TypeSubscribe:
			m, err := wire.DecodeSubscribe(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			srv.handleSubscribe(sess, m)
		case wire.TypeUnsubscribe:
			m, err := wire.DecodeUnsubscribe(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			srv.handleUnsubscribe(sess, m)
		case wire.TypePublish:
			m, err := wire.DecodePublish(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			srv.handlePublish(sess, m)
		case wire.TypeAck:
			m, err := wire.DecodeAck(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			sess.ack(m.Did, m.Credit)
		case wire.TypeCredit:
			n, err := wire.DecodeCredit(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			sess.grantCredit(n)
		case wire.TypePing:
			nonce, err := wire.DecodePing(payload)
			if err != nil {
				srv.met.badFrames.Inc()
				sess.detach(gen)
				return
			}
			sess.sendCtrl(ctrlMsg{typ: wire.TypePong, id: int64(nonce)})
		case wire.TypeGoodbye:
			srv.endSession(sess)
			return
		default:
			srv.met.badFrames.Inc()
			sess.detach(gen)
			return
		}
	}
}

// handleSubscribe registers one interest rectangle with the broker and
// replies. Retransmitted request ids return the cached reply without
// repeating the side effect.
func (srv *Server) handleSubscribe(sess *session, m wire.Subscribe) {
	if !sess.claim(m.ReqID) {
		return
	}
	reply := ctrlMsg{typ: wire.TypeSubscribed, id: m.ReqID}
	srv.mu.Lock()
	draining := srv.draining
	b := srv.b
	srv.mu.Unlock()
	if draining {
		reply.err = "server draining"
	} else if slot, err := b.Subscribe(workloadSub(m)); err != nil {
		reply.err = err.Error()
	} else {
		reply.seq = int64(slot)
		srv.mu.Lock()
		sess.mu.Lock()
		if sess.dead {
			sess.mu.Unlock()
			srv.mu.Unlock()
			// Session died while we were subscribing: undo.
			b.Unsubscribe(slot)
			return
		}
		sess.slots[int64(slot)] = m.Owner
		srv.addNodeRef(sess, m.Owner)
		sess.finishLocked(reply, true)
		sess.mu.Unlock()
		srv.mu.Unlock()
		return
	}
	sess.finish(reply, true)
}

// handleUnsubscribe releases a slot owned by this session.
func (srv *Server) handleUnsubscribe(sess *session, m wire.Unsubscribe) {
	if !sess.claim(m.ReqID) {
		return
	}
	reply := ctrlMsg{typ: wire.TypeUnsubscribed, id: m.ReqID}
	sess.mu.Lock()
	owner, ok := sess.slots[m.Slot]
	if ok {
		delete(sess.slots, m.Slot)
	}
	sess.mu.Unlock()
	if !ok {
		reply.err = "unknown slot"
	} else {
		srv.mu.Lock()
		b := srv.b
		srv.dropNodeRef(sess, owner)
		srv.mu.Unlock()
		if err := b.Unsubscribe(int(m.Slot)); err != nil {
			reply.err = err.Error()
		}
	}
	sess.finish(reply, true)
}

// workloadSub converts a wire subscribe into the broker's subscription.
func workloadSub(m wire.Subscribe) workload.Subscription {
	return workload.Subscription{Owner: m.Owner, Rect: m.Rect}
}

// addNodeRef counts one more slot sess holds under node owner and, for
// its first, installs a new session list for owner. Caller holds srv.mu.
func (srv *Server) addNodeRef(sess *session, owner topology.NodeID) {
	sess.nodeRefs[owner]++
	if sess.nodeRefs[owner] == 1 {
		srv.byNode[owner] = append(slices.Clip(srv.byNode[owner]), sess)
	}
}

// dropNodeRef counts one slot fewer under node owner and, for the last,
// installs a list for owner without sess. A session that endSession has
// already unlisted holds no counts, and this is a no-op. Caller holds
// srv.mu.
func (srv *Server) dropNodeRef(sess *session, owner topology.NodeID) {
	switch n := sess.nodeRefs[owner]; {
	case n > 1:
		sess.nodeRefs[owner] = n - 1
	case n == 1:
		delete(sess.nodeRefs, owner)
		srv.unlist(sess, owner)
	}
}

// unlist installs a list for owner without sess, which holds a count
// there. Caller holds srv.mu.
func (srv *Server) unlist(sess *session, owner topology.NodeID) {
	list := srv.byNode[owner]
	if len(list) == 1 {
		delete(srv.byNode, owner)
		return
	}
	i := slices.Index(list, sess)
	srv.byNode[owner] = slices.Delete(slices.Clone(list), i, i+1)
}

// handlePublish feeds one client publication into the broker, deduping
// retransmitted publish sequence numbers so a retry after a reconnect
// enters the broker exactly once. The dedup window records a pseq only
// after the broker accepted it, so a failed publish stays retryable; a
// retransmit that arrives while the original is still inside the broker
// is dropped, and the original's ack answers both.
func (srv *Server) handlePublish(sess *session, m wire.Publish) {
	reply := ctrlMsg{typ: wire.TypePubAck, id: m.PSeq, seq: -1}
	sess.mu.Lock()
	fresh := false
	if sess.pubWin.Seen(m.PSeq) {
		// Replay the original ack when it is still cached, so a client
		// whose ack was lost in a disconnect still learns the broker seq
		// its publish consumed.
		if cached, ok := sess.cachedCtrlReply(m.PSeq); ok {
			reply = cached
		}
		sess.sendCtrlLocked(reply)
	} else {
		fresh = sess.claimLocked(m.PSeq)
	}
	sess.mu.Unlock()
	if !fresh {
		srv.met.publishDups.Inc()
		return
	}
	srv.mu.Lock()
	draining := srv.draining
	b := srv.b
	srv.mu.Unlock()
	accepted := false
	if draining {
		reply.err = "server draining"
	} else if seq, err := b.PublishSeq(m.Ev); err != nil {
		// The seq still reports, even alongside an error: a consumed seq
		// may have been journaled before the failure, and a federation
		// router needs it to dedup a recovery replay against its retry.
		reply.seq = seq
		reply.err = err.Error()
	} else {
		reply.seq = seq
		accepted = true
		srv.met.publishes.Inc()
	}
	sess.mu.Lock()
	if accepted {
		sess.pubWin.Admit(m.PSeq)
	}
	// Only a successful ack is cached for retransmission (pseqs share the
	// control request-id space on the client, so the one cache serves
	// both).
	sess.finishLocked(reply, accepted)
	sess.mu.Unlock()
}

// endSession terminates a session: unsubscribes its slots, drops it from
// the server tables, and closes any live connection.
func (srv *Server) endSession(sess *session) {
	conn, slots := sess.kill()
	srv.mu.Lock()
	if _, ok := srv.sessions[sess.token]; ok {
		delete(srv.sessions, sess.token)
		srv.met.sessionsActive.Add(-1)
	}
	for owner := range sess.nodeRefs {
		srv.unlist(sess, owner)
	}
	clear(sess.nodeRefs)
	b := srv.b
	srv.mu.Unlock()
	for _, slot := range slots {
		if b != nil {
			b.Unsubscribe(int(slot))
		}
	}
	if conn != nil {
		conn.Close()
	}
}

// Shutdown gracefully drains the server: stop accepting, refuse new work,
// close the broker (which flushes in-flight deliveries into session
// queues and then checkpoints and closes the journal), wait until every
// session has written and had acknowledged all of its deliveries, then
// say goodbye. If ctx expires first, remaining sessions are killed and
// ctx.Err() is returned; otherwise any broker close error (a failed final
// checkpoint or journal close — durability at risk) is returned so the
// operator's exit status reflects it.
func (srv *Server) Shutdown(ctx context.Context) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.draining = true
	ln := srv.ln
	b := srv.b
	var sessions []*session
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		s.sendCtrl(ctrlMsg{typ: wire.TypeDrain})
	}

	// Broker close drains its pipeline through Dispatch into the session
	// queues; it can block on a full session, so run it concurrently and
	// be ready to kill sessions if the deadline passes.
	brokerDone := make(chan struct{})
	var brokerErr error
	go func() {
		if b != nil {
			brokerErr = b.Close()
		}
		close(brokerDone)
	}()

	flushed := func() bool {
		for _, s := range sessions {
			if !s.flushed() {
				return false
			}
		}
		return true
	}

	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	brokerClosed := false
	for {
		select {
		case <-brokerDone:
			brokerDone = nil
			brokerClosed = true
		case <-tick.C:
		case <-ctx.Done():
			// Deadline: kill sessions first so a blocked Dispatch unwinds
			// and the broker can finish closing (journal included).
			for _, s := range sessions {
				srv.endSession(s)
			}
			if !brokerClosed {
				<-brokerDone
			}
			srv.finishClose()
			return ctx.Err()
		}
		if brokerClosed && flushed() {
			break
		}
	}

	for _, s := range sessions {
		s.sendCtrl(ctrlMsg{typ: wire.TypeGoodbye})
	}
	// Give the writers a moment to push the goodbye out before closing.
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, s := range sessions {
			s.mu.Lock()
			if len(s.ctrl) > 0 && s.conn != nil && !s.dead {
				done = false
			}
			s.mu.Unlock()
		}
		if done {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, s := range sessions {
		srv.endSession(s)
	}
	srv.finishClose()
	return brokerErr
}

// Close force-stops the server without draining.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return nil
	}
	srv.draining = true
	ln := srv.ln
	var sessions []*session
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, s := range sessions {
		srv.endSession(s)
	}
	srv.finishClose()
	return nil
}

func (srv *Server) finishClose() {
	srv.mu.Lock()
	srv.closed = true
	srv.mu.Unlock()
}
