package replicate

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/wire"
)

// FollowerConfig tunes the warm-standby half of a replicated pair.
type FollowerConfig struct {
	// Dir is the replica's data directory (wiped and re-seeded on every
	// resync; becomes the broker directory on promotion).
	Dir string
	// EpochDir, when set, holds the fencing-epoch file separately from
	// Dir — e.g. on storage that survives a data-dir rebuild. Defaults
	// to Dir.
	EpochDir string
	// Base fingerprints the subscription base the pair was built over —
	// it must match the leader's.
	Base durable.BaseInfo
	// Addr is the leader's replication endpoint.
	Addr string
	// TLS, when set, wraps the connection (client side).
	TLS *tls.Config
	// Dialer overrides plain net.Dial — the chaos suite injects
	// fault-wrapped connections here.
	Dialer func(addr string) (net.Conn, error)
	// MaxFrame bounds replication frames (default wire.DefaultMaxFrame).
	MaxFrame int
	// Health tunes the failure detector watching the leader: its breaker
	// opening (FailureThreshold consecutive silent windows or failed
	// dials) is the promotion trigger.
	Health health.Config
	// ReadTimeout is the frame-silence window charged as one failure
	// against the leader. Default 500ms (5× the default heartbeat).
	ReadTimeout time.Duration
	// Reconnect is the pause between dial attempts. Default 25ms.
	Reconnect time.Duration
	// Durable passes the mirror store's options (the crash injector is
	// the one that matters; a Tap is ignored).
	Durable durable.Options
	// OnLeaderDead, when set, runs (once, on its own goroutine) when the
	// leader is declared dead; LeaderDead() exposes the same event as a
	// channel.
	OnLeaderDead func()
}

func (c *FollowerConfig) setDefaults() {
	if c.EpochDir == "" {
		c.EpochDir = c.Dir
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * defaultHeartbeat
	}
	if c.Reconnect == 0 {
		c.Reconnect = defaultReconnect
	}
	c.MaxFrame = defaultMaxFrame(c.MaxFrame)
	if c.Dialer == nil {
		c.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
}

// Follower mirrors a leader's journal stream into a local mirror
// durable.Store (durable.OpenMirror) — a warm standby. It detects leader
// death through its failure detector and exposes the event; promotion
// (Promote / PromoteLeader) persists a higher fencing epoch and runs
// ordinary crash-restart recovery over the mirrored directory. It serves
// no publishes or subscriptions until promoted.
type Follower struct {
	cfg     FollowerConfig
	rep     *durable.Store
	tracker *health.Tracker

	// applyMu is held across every replica mutation; Promote takes it to
	// quiesce the apply path before closing the replica.
	applyMu sync.Mutex

	mu          sync.Mutex
	term        int64
	watermark   int64 // highest live ship index applied + fsynced
	catchupLast int64 // snapshot ticket of the current connection's catch-up
	everSynced  bool  // completed at least one full catch-up (promotion gate)
	connected   bool
	promoting   bool
	crashed     bool
	closed      bool
	conn        net.Conn

	leaderDead chan struct{}
	deadOnce   sync.Once
	closeCh    chan struct{}
	done       chan struct{}
}

// StartFollower opens the replica directory, loads the persisted fencing
// epoch, and starts the replication loop: connect, full resync, apply
// until the link dies, repeat. A node whose directory already holds a
// higher epoch than the leader's will fence that leader on contact.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	cfg.setDefaults()
	term, err := durable.LoadEpoch(cfg.EpochDir)
	if err != nil {
		return nil, err
	}
	rep, err := durable.OpenMirror(cfg.Dir, cfg.Base, cfg.Durable)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		cfg: cfg, rep: rep, term: term,
		tracker:    newTracker(cfg.Health),
		leaderDead: make(chan struct{}),
		closeCh:    make(chan struct{}),
		done:       make(chan struct{}),
	}
	go f.run()
	return f, nil
}

func (f *Follower) run() {
	defer close(f.done)
	for {
		if f.stopped() {
			return
		}
		conn, err := f.dial()
		if err != nil {
			if f.chargeFailure() {
				return
			}
			f.pause()
			continue
		}
		f.setConn(conn)
		err = f.serve(conn)
		f.clearConn(conn)
		if f.stopped() {
			return
		}
		if errors.Is(err, faults.ErrCrashed) {
			// Simulated process death: freeze. The chaos suite restarts a
			// fresh Follower over the same directory.
			f.mu.Lock()
			f.crashed = true
			f.mu.Unlock()
			return
		}
		if errors.Is(err, errOutranked) {
			// Someone newer than the leader we know exists — never promote
			// over them; keep retrying in case leadership settles.
		} else if f.chargeFailure() {
			return
		}
		f.pause()
	}
}

// chargeFailure reports one leader failure and returns true when the
// breaker has opened — leader declared dead, run loop should exit. A
// follower whose mirror is incomplete — it never finished a catch-up,
// or a reconnect's reset wiped the directory and the resync has not
// completed yet — refuses to promote and keeps retrying instead.
func (f *Follower) chargeFailure() bool {
	f.tracker.ReportFailure(peerNode)
	if f.tracker.AllowDest(peerNode) {
		return false
	}
	f.mu.Lock()
	synced := f.everSynced
	f.mu.Unlock()
	if !synced {
		return false
	}
	f.declareLeaderDead()
	return true
}

func (f *Follower) declareLeaderDead() {
	f.deadOnce.Do(func() {
		close(f.leaderDead)
		if f.cfg.OnLeaderDead != nil {
			go f.cfg.OnLeaderDead()
		}
	})
}

func (f *Follower) dial() (net.Conn, error) {
	conn, err := f.cfg.Dialer(f.cfg.Addr)
	if err != nil {
		return nil, err
	}
	if f.cfg.TLS != nil {
		conn = tls.Client(conn, f.cfg.TLS)
	}
	return conn, nil
}

var (
	errOutranked = errors.New("replicate: a higher epoch than the leader's exists")
	errStaleLead = errors.New("replicate: leader epoch is stale")
)

// serve runs one connection: handshake, catch-up, apply until error.
func (f *Follower) serve(conn net.Conn) error {
	r := wire.NewReader(conn, f.cfg.MaxFrame)
	w := wire.NewWriter(conn, f.cfg.MaxFrame)
	if err := writeFrame(w, wire.AppendReplHello(nil, wire.ReplHello{Version: wire.Version, Term: f.Term()})); err != nil {
		return err
	}
	f.mu.Lock()
	f.catchupLast, f.watermark = 0, 0
	f.mu.Unlock()
	last := time.Now()
	for {
		conn.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout))
		payload, err := r.ReadFrame()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// Frame silence: charge a failure; keep listening unless
				// the breaker opened. (A timeout can tear a partial frame;
				// the next read then errors and we reconnect — fine, the
				// leader was silent for a full window either way.)
				if f.chargeFailure() {
					return errLeaderDead
				}
				continue
			}
			return err
		}
		f.tracker.ReportSuccess(peerNode, time.Since(last))
		last = time.Now()
		if f.isPromoting() {
			// Fencing mode: this node has been promoted while the old
			// leader still talks. Answer everything with our epoch.
			writeFrame(w, wire.AppendEpoch(nil, f.Term()))
			continue
		}
		if err := f.handle(w, payload); err != nil {
			return err
		}
	}
}

var errLeaderDead = errors.New("replicate: leader declared dead")

func (f *Follower) handle(w *wire.Writer, payload []byte) error {
	switch wire.MsgType(payload) {
	case wire.TypeCatchup:
		m, err := wire.DecodeCatchup(payload)
		if err != nil {
			return err
		}
		if err := f.checkTerm(w, m.Term); err != nil {
			return err
		}
		// The reset is about to wipe the mirror: drop the promotion gate
		// with it (before the wipe, so no window exists where the directory
		// is partial but the gate is open). A leader lost mid-resync then
		// leaves a follower that refuses to promote until this session's
		// catch-up completes (watermark >= catchupLast re-arms the gate).
		f.mu.Lock()
		f.everSynced = false
		f.catchupLast = m.LastIdx
		f.watermark = 0
		f.mu.Unlock()
		f.applyMu.Lock()
		err = f.rep.Reset(m.JournalEpoch, m.Ckpt)
		f.applyMu.Unlock()
		return err
	case wire.TypeReplicate:
		m, err := wire.DecodeReplicate(payload)
		if err != nil {
			return err
		}
		if err := f.checkTerm(w, m.Term); err != nil {
			return err
		}
		f.applyMu.Lock()
		for _, rec := range m.Recs {
			if err := f.rep.AppendRaw(rec); err != nil {
				f.applyMu.Unlock()
				return err
			}
		}
		err = f.rep.Sync()
		f.applyMu.Unlock()
		if err != nil {
			return err
		}
		f.mu.Lock()
		if m.FirstIdx > 0 {
			if nw := m.FirstIdx + int64(len(m.Recs)) - 1; nw > f.watermark {
				f.watermark = nw
			}
			if f.watermark >= f.catchupLast {
				f.everSynced = true
			}
		}
		ack := wire.ReplAck{Term: f.term, Idx: f.watermark}
		f.mu.Unlock()
		return writeFrame(w, wire.AppendReplAck(nil, ack))
	case wire.TypeReplRotate:
		m, err := wire.DecodeReplRotate(payload)
		if err != nil {
			return err
		}
		if err := f.checkTerm(w, m.Term); err != nil {
			return err
		}
		f.applyMu.Lock()
		defer f.applyMu.Unlock()
		if len(m.Ckpt) == 0 {
			return f.rep.Rotate(m.JournalEpoch)
		}
		return f.rep.InstallCheckpoint(m.JournalEpoch, m.Ckpt)
	case wire.TypePing:
		return writeFrame(w, wire.AppendPong(nil, 0))
	case wire.TypeEpoch:
		t, err := wire.DecodeEpoch(payload)
		if err != nil {
			return err
		}
		if t > f.Term() {
			// A third party outranks the leader we dialed: adopt the
			// epoch so we never promote over it.
			if err := f.adoptTerm(t); err != nil {
				return err
			}
			return errOutranked
		}
		return errStaleLead
	case wire.TypeGoodbye:
		return errStaleLead
	default:
		return fmt.Errorf("replicate: unexpected frame type %d", wire.MsgType(payload))
	}
}

// checkTerm reconciles a frame's term against ours: higher is adopted
// (and persisted before anything is applied under it), lower is fenced.
func (f *Follower) checkTerm(w *wire.Writer, term int64) error {
	cur := f.Term()
	if term > cur {
		return f.adoptTerm(term)
	}
	if term < cur {
		writeFrame(w, wire.AppendEpoch(nil, cur))
		return errStaleLead
	}
	return nil
}

func (f *Follower) adoptTerm(term int64) error {
	if err := durable.StoreEpoch(f.cfg.EpochDir, term); err != nil {
		return err
	}
	f.mu.Lock()
	if term > f.term {
		f.term = term
	}
	f.mu.Unlock()
	return nil
}

// ---- promotion ----------------------------------------------------------

// quiesce durably claims term+1 and stops the apply path; the replica
// directory is then frozen, ready for recovery. The connection (if any)
// stays up in fencing mode so a still-talking ex-leader learns the new
// epoch from its own frames.
func (f *Follower) quiesce() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return durable.ErrClosed
	}
	if f.promoting {
		f.mu.Unlock()
		return errors.New("replicate: already promoted")
	}
	if f.crashed || f.rep.Crashed() {
		f.mu.Unlock()
		return faults.ErrCrashed
	}
	newTerm := f.term + 1
	f.mu.Unlock()
	// Persist the claim BEFORE serving anything under it: fencing only
	// works if a restart cannot forget a promotion.
	if err := durable.StoreEpoch(f.cfg.EpochDir, newTerm); err != nil {
		return err
	}
	f.mu.Lock()
	f.term = newTerm
	f.promoting = true
	f.mu.Unlock()
	f.applyMu.Lock() // wait out any in-flight apply batch
	f.applyMu.Unlock()
	return f.rep.Close()
}

// Promote turns the standby into a serving broker: persist term+1, close
// the replica, run crash-restart recovery over the mirrored directory.
// The engine must be seeded identically to the leader's, exactly as with
// broker.Open after a crash.
func (f *Follower) Promote(engine *core.Engine, opts ...broker.Option) (*broker.Broker, error) {
	if err := f.quiesce(); err != nil {
		return nil, err
	}
	return broker.Open(f.cfg.Dir, engine, opts...)
}

// PromoteLeader is Promote for a node that should itself accept
// followers afterwards — e.g. when the fenced ex-leader will rejoin as
// the new standby. The new leader's term is the one quiesce persisted.
func (f *Follower) PromoteLeader(engine *core.Engine, cfg LeaderConfig, opts ...broker.Option) (*Leader, error) {
	if cfg.EpochDir == "" {
		cfg.EpochDir = f.cfg.EpochDir
	}
	if err := f.quiesce(); err != nil {
		return nil, err
	}
	return OpenLeader(f.cfg.Dir, engine, cfg, opts...)
}

// ---- plumbing -----------------------------------------------------------

func writeFrame(w *wire.Writer, payload []byte) error {
	if err := w.WriteFrame(payload); err != nil {
		return err
	}
	return w.Flush()
}

func (f *Follower) stopped() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed || f.promoting
}

func (f *Follower) isPromoting() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.promoting
}

func (f *Follower) setConn(conn net.Conn) {
	f.mu.Lock()
	f.conn = conn
	f.connected = true
	f.mu.Unlock()
}

func (f *Follower) clearConn(conn net.Conn) {
	conn.Close()
	f.mu.Lock()
	if f.conn == conn {
		f.conn = nil
	}
	f.connected = false
	f.mu.Unlock()
}

func (f *Follower) pause() {
	select {
	case <-f.closeCh:
	case <-time.After(f.cfg.Reconnect):
	}
}

// Close stops the replication loop and closes the replica. Promoted
// followers only stop the loop — the promoted broker owns the directory.
func (f *Follower) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	promoted := f.promoting
	conn := f.conn
	f.mu.Unlock()
	close(f.closeCh)
	if conn != nil {
		conn.Close()
	}
	<-f.done
	if promoted {
		return nil
	}
	return f.rep.Close()
}

// ---- accessors ----------------------------------------------------------

// Term returns the highest fencing epoch this node has persisted.
func (f *Follower) Term() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.term
}

// Watermark returns the highest live ship index applied and fsynced on
// the current connection.
func (f *Follower) Watermark() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.watermark
}

// Synced reports whether the current connection has completed catch-up.
func (f *Follower) Synced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected && f.everSynced && f.watermark >= f.catchupLast
}

// Connected reports whether a replication session is currently up.
func (f *Follower) Connected() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.connected
}

// Crashed reports whether an injected crash point froze the replica.
func (f *Follower) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed || f.rep.Crashed()
}

// Applied returns the records applied since the last resync.
func (f *Follower) Applied() int64 { return f.rep.Applied() }

// LeaderDead is closed when the failure detector declares the leader
// dead — the promotion trigger.
func (f *Follower) LeaderDead() <-chan struct{} { return f.leaderDead }
