package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federate"
	"repro/internal/replicate"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// recorder holds what the wrappers of the traced stack observe. Everything
// is kept in memory and keyed so that it can be joined per event after the
// run: the backend wrapper knows an event's (global) sequence only when
// PublishSeq returns, the decision observers see shard-local sequences,
// and the dispatch wrapper sees the sequence clients see.
type recorder struct {
	start time.Time
	ours  map[topology.NodeID]bool // the receiver's owner nodes; read-only once the stack serves

	mu   sync.Mutex
	pubs []*pubSpan
	// cur is the publish in progress. The generator uses one publisher
	// connection and the transport server handles a connection's frames
	// one at a time, so publishes do not overlap and a shard call made
	// while cur is set belongs to it.
	cur *pubSpan

	decided [][]atomic.Int64 // [shard][local seq] → ns since start, +1 (0 = not seen)
	disp    []dispRec        // [client-visible seq]

	observerCalls atomic.Int64 // broker observer invocations, every node
	shardObsNs    atomic.Int64 // time inside the federation's shard observers (Feed + Dispatch)
	dispatchCalls atomic.Int64 // Dispatch invocations for the receiver's nodes
	dispatchNs    atomic.Int64
}

// pubSpan is one Backend.PublishSeq call.
type pubSpan struct {
	enter, ret int64
	seq        int64
	shards     []shardSpan
}

// shardSpan is one Shard.DecideSeq call made inside a PublishSeq.
type shardSpan struct {
	shard      int
	local      int64
	enter, ret int64
}

// dispRec brackets the Dispatch calls of one sequence to the receiver's
// nodes: entry of the first, return of the last (ns since start, +1).
type dispRec struct {
	firstEnter atomic.Int64
	lastExit   atomic.Int64
}

func newRecorder(tr *traffic, shards, seqs int) *recorder {
	r := &recorder{ours: make(map[topology.NodeID]bool), disp: make([]dispRec, seqs)}
	for _, o := range tr.owners {
		r.ours[o] = true
	}
	r.ours[tr.narrowOwner] = true
	r.decided = make([][]atomic.Int64, shards)
	for i := range r.decided {
		r.decided[i] = make([]atomic.Int64, seqs)
	}
	return r
}

func (r *recorder) since() int64 { return time.Since(r.start).Nanoseconds() }

// reset starts a new phase: timestamps restart at zero and earlier
// records are dropped. Call only while no traffic is in flight.
func (r *recorder) reset() {
	r.mu.Lock()
	r.start = time.Now()
	r.pubs = nil
	r.mu.Unlock()
	for i := range r.disp {
		r.disp[i].firstEnter.Store(0)
		r.disp[i].lastExit.Store(0)
	}
	for _, s := range r.decided {
		for i := range s {
			s[i].Store(0)
		}
	}
	r.observerCalls.Store(0)
	r.shardObsNs.Store(0)
	r.dispatchCalls.Store(0)
	r.dispatchNs.Store(0)
}

func (r *recorder) noteDecided(shard int, local int64) {
	if local >= 0 && local < int64(len(r.decided[shard])) {
		r.decided[shard][local].Store(r.since() + 1)
	}
}

// dispatch forwards one delivery to the transport server, timing the call
// when it is addressed to one of the receiver's nodes.
func (r *recorder) dispatch(srv *transport.Server, n topology.NodeID, d broker.Delivery) {
	if !r.ours[n] {
		srv.Dispatch(n, d)
		return
	}
	t0 := r.since()
	srv.Dispatch(n, d)
	t1 := r.since()
	r.dispatchCalls.Add(1)
	r.dispatchNs.Add(t1 - t0)
	if d.Seq < 0 || d.Seq >= int64(len(r.disp)) {
		return
	}
	rec := &r.disp[d.Seq]
	for {
		old := rec.firstEnter.Load()
		if (old != 0 && old <= t0+1) || rec.firstEnter.CompareAndSwap(old, t0+1) {
			break
		}
	}
	for {
		old := rec.lastExit.Load()
		if old >= t1+1 || rec.lastExit.CompareAndSwap(old, t1+1) {
			break
		}
	}
}

// timedBackend wraps the backend the transport server publishes into.
type timedBackend struct {
	transport.Backend
	rec *recorder
}

func (b *timedBackend) PublishSeq(ev workload.Event) (int64, error) {
	p := &pubSpan{enter: b.rec.since(), seq: -1}
	b.rec.mu.Lock()
	b.rec.cur = p
	b.rec.mu.Unlock()
	seq, err := b.Backend.PublishSeq(ev)
	p.ret = b.rec.since()
	p.seq = seq
	b.rec.mu.Lock()
	b.rec.cur = nil
	b.rec.pubs = append(b.rec.pubs, p)
	b.rec.mu.Unlock()
	return seq, err
}

// timedShard wraps one shard attached to the federation router.
type timedShard struct {
	broker.Shard
	idx int
	rec *recorder
}

func (s *timedShard) DecideSeq(ev workload.Event) (int64, error) {
	t0 := s.rec.since()
	local, err := s.Shard.DecideSeq(ev)
	t1 := s.rec.since()
	s.rec.mu.Lock()
	if s.rec.cur != nil {
		s.rec.cur.shards = append(s.rec.cur.shards, shardSpan{shard: s.idx, local: local, enter: t0, ret: t1})
	}
	s.rec.mu.Unlock()
	return local, err
}

// stack is a workload's deployment shape assembled in the benchmark
// process from the layers' public constructors, with a timing wrapper at
// every seam that already exists: the transport.Backend the server
// publishes into, each broker.Shard the router decides on, the brokers'
// delivery and decision observers, and (from the client side) the Conn
// calls. No code inside a layer is touched.
type stack struct {
	wl      workloadDef
	rec     *recorder
	srv     *transport.Server
	ln      net.Listener
	served  chan error
	backend transport.Backend // unwrapped: *broker.Broker or *federate.Router
	engines []*core.Engine
	brokers []*broker.Broker
	router  *federate.Router
	leader  *replicate.Leader
	flw     *replicate.Follower
	dir     string // data dirs of a replicated stack

	engineBuild time.Duration // core.NewFromWorld, summed over the stack's engines
	derive      time.Duration // federate.Derive (fed4 only)
}

// daemonEngineConfig is cmd/pubsub-server's default clustering
// configuration (-alg forgy -groups 100 -budget 6000 -threshold 0).
func daemonEngineConfig() core.Config {
	return core.Config{Groups: 100, CellBudget: 6000, Algorithm: &cluster.KMeans{Variant: cluster.Forgy}}
}

// daemonBrokerOptions are the options cmd/pubsub-server passes every
// broker at its defaults (-workers 4 -decide-workers 0).
func daemonBrokerOptions() []broker.Option {
	return []broker.Option{broker.WithWorkers(4), broker.WithDecideWorkers(0)}
}

func buildStack(wl workloadDef, tr *traffic, scratch string, seqs int) (st *stack, err error) {
	world, err := buildWorld(wl.subs)
	if err != nil {
		return nil, err
	}
	train := world.Events(2000, worldSeed+2)
	shards := 1
	if wl.shape == shapeFed4 {
		shards = 4
	}
	st = &stack{wl: wl, rec: newRecorder(tr, shards, seqs), served: make(chan error, 1)}
	// The engine appends to its world's subscriptions; fingerprint the base
	// population before any engine owns it.
	base := durable.BaseInfo{Hash: durable.HashBase(world.Subs), Count: int64(len(world.Subs))}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	rec := st.rec
	srvCfg := transport.Config{}
	if wl.shape == shapeReplicated {
		srvCfg.ReplHandler = func(conn net.Conn, r *wire.Reader, w *wire.Writer, hello wire.ReplHello) {
			st.leader.Accept(conn, r, w, hello)
		}
	}
	st.srv = transport.NewServer(srvCfg)

	newEngine := func(w *workload.World) (*core.Engine, error) {
		t0 := time.Now()
		e, err := core.NewFromWorld(w, train, daemonEngineConfig())
		st.engineBuild += time.Since(t0)
		if err == nil {
			st.engines = append(st.engines, e)
		}
		return e, err
	}
	observed := func(shard int, deliver func(topology.NodeID, broker.Delivery)) []broker.Option {
		return append(daemonBrokerOptions(),
			broker.WithObserver(deliver),
			broker.WithDecisionObserver(func(seq int64, _ workload.Event, _ core.Decision, _ core.Costs) {
				rec.noteDecided(shard, seq)
			}))
	}
	toServer := func(n topology.NodeID, d broker.Delivery) {
		rec.observerCalls.Add(1)
		rec.dispatch(st.srv, n, d)
	}

	switch wl.shape {
	case shapeSolo:
		e, err := newEngine(world)
		if err != nil {
			return st, err
		}
		b, err := broker.New(e, observed(0, toServer)...)
		if err != nil {
			return st, err
		}
		st.brokers = append(st.brokers, b)
		st.backend = b

	case shapeReplicated:
		if st.dir, err = os.MkdirTemp(scratch, "traced-"); err != nil {
			return st, err
		}
		e, err := newEngine(world)
		if err != nil {
			return st, err
		}
		if st.leader, err = replicate.OpenLeader(st.dir+"/leader", e, replicate.LeaderConfig{}, observed(0, toServer)...); err != nil {
			return st, err
		}
		st.brokers = append(st.brokers, st.leader.Broker())
		st.backend = st.leader.Broker()

	case shapeFed4:
		t0 := time.Now()
		tiles, err := federate.Derive(world, train, shards)
		st.derive = time.Since(t0)
		if err != nil {
			return st, err
		}
		st.router, err = federate.NewRouter(federate.Config{Tiles: tiles, Observer: func(n topology.NodeID, d broker.Delivery) {
			rec.dispatch(st.srv, n, d)
		}})
		if err != nil {
			return st, err
		}
		st.backend = st.router
		for i, tile := range tiles {
			tw, err := federate.TileWorld(world, tile)
			if err != nil {
				return st, err
			}
			e, err := newEngine(tw)
			if err != nil {
				return st, err
			}
			feed := st.router.ShardObserver(i)
			b, err := broker.New(e, observed(i, func(n topology.NodeID, d broker.Delivery) {
				rec.observerCalls.Add(1)
				t0 := time.Now()
				feed(n, d)
				rec.shardObsNs.Add(time.Since(t0).Nanoseconds())
			})...)
			if err != nil {
				return st, err
			}
			st.brokers = append(st.brokers, b)
			if err := st.router.Attach(i, &timedShard{Shard: b, idx: i, rec: rec}); err != nil {
				return st, err
			}
		}
	}

	if st.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return st, err
	}
	go func() { st.served <- st.srv.Serve(st.ln, &timedBackend{Backend: st.backend, rec: rec}) }()

	if wl.shape == shapeReplicated {
		// The follower dials the client listener, as the daemon's does.
		st.flw, err = replicate.StartFollower(replicate.FollowerConfig{Dir: st.dir + "/standby", Base: base, Addr: st.ln.Addr().String()})
		if err != nil {
			return st, err
		}
		deadline := time.Now().Add(startTimeout)
		for st.leader.Solo() {
			if time.Now().After(deadline) {
				return st, errors.New("traced stack: standby did not attach")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return st, nil
}

// dropStandby stops the follower and waits for the leader to notice, so
// the same stack then publishes without the replica barrier.
func (st *stack) dropStandby() error {
	if st.flw == nil {
		return nil
	}
	err := st.flw.Close()
	st.flw = nil
	deadline := time.Now().Add(5 * time.Second)
	for !st.leader.Solo() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !st.leader.Solo() {
		return errors.New("traced stack: leader still has a follower session after the standby closed")
	}
	return err
}

// close stops the server and every layer under it and hands the engines
// back (a broker owns its engine until Close returns).
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	// The replication session runs on a server connection goroutine that
	// Serve waits for, so the follower goes first.
	if st.flw != nil {
		keep(st.flw.Close())
		st.flw = nil
	}
	if st.srv != nil {
		keep(st.srv.Close())
	}
	if st.ln != nil {
		if err := <-st.served; err != nil && !errors.Is(err, transport.ErrServerClosed) {
			keep(fmt.Errorf("traced stack: serve: %w", err))
		}
	}
	switch {
	case st.leader != nil:
		keep(st.leader.Close())
	case st.router != nil:
		keep(st.router.Close())
	default:
		for _, b := range st.brokers {
			keep(b.Close())
		}
	}
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
	return first
}
