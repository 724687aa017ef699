// Command pubsub-server runs the broker as a TCP daemon speaking the wire
// protocol (see the Wire transport section of DESIGN.md). It builds the
// same world and clustering engine as pubsub-sim, then serves clients —
// subscriptions, publications and deliveries — over the network, with
// credit-based flow control and resumable sessions.
//
// Usage:
//
//	pubsub-server [flags]
//
// Flags:
//
//	-listen ADDR     TCP listen address (default 127.0.0.1:7070; use :0
//	                 for an ephemeral port, printed on startup)
//	-alg NAME        clustering algorithm: kmeans, forgy, mst, pairs,
//	                 approx-pairs (default forgy)
//	-groups K        number of multicast groups (default 100)
//	-subs N          pre-seeded subscriptions (default 1000)
//	-modes N         publication mixture modes (default 1)
//	-budget N        cell budget for grid algorithms (default 6000)
//	-threshold F     Fig 5 threshold (default 0 = always multicast)
//	-dynamic         per-event unicast/multicast/broadcast selection
//	-seed N          random seed (default 1)
//	-workers N       broker delivery workers (default 4)
//	-decide-workers N broker decision workers (0 = GOMAXPROCS)
//	-max-inflight N  admission bound on in-pipeline events (0 = unlimited)
//	-shed-policy P   overload policy: block, reject or shed
//	-data-dir DIR    durable broker state (journal + checkpoints),
//	                 recovered on restart; also enables replication —
//	                 a durable server accepts warm-standby followers on
//	                 its client listener
//	-replica-of ADDR run as a warm standby mirroring the leader at ADDR
//	                 (requires -data-dir); on leader death the standby
//	                 promotes itself and serves on -listen
//	-epoch-dir DIR   store the replication fencing epoch here instead of
//	                 inside -data-dir (e.g. on storage that survives a
//	                 data-dir rebuild)
//	-shards N        run an in-process federation: partition the
//	                 subscription space into N tiles (N a power of two)
//	                 and serve them through a federate.Router with
//	                 cross-shard exactly-once merge; incompatible with
//	                 -data-dir/-replica-of/-epoch-dir (run one durable
//	                 shard per process with -shard-of instead)
//	-shard-of I/N    serve only tile I of the N-tile derived partition:
//	                 the world is restricted to the subscriptions
//	                 intersecting that tile, and a federation router in
//	                 another process routes events across the N
//	                 daemons; composes with -data-dir and -replica-of,
//	                 so each shard can be a replicated pair
//	-session-timeout D  how long a disconnected session may resume
//	                 (default 10s)
//	-drain-timeout D maximum graceful-drain time on SIGINT/SIGTERM
//	                 (default 30s)
//	-http ADDR       serve /metrics, /metrics.json and /debug/pprof/
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting
// connections, lets the broker flush every in-flight delivery to the
// connected clients, closes the journal (writing a final checkpoint when
// -data-dir is set), says goodbye to each session and exits 0. A second
// signal — or the drain timeout — forces an immediate stop. A drain that
// cannot complete — deadline hit, or the final checkpoint/journal close
// failed — exits 1 so supervisors see the durability risk.
//
// Replica pairs: start the leader with -data-dir, then a standby with
// -replica-of pointing at the leader's -listen address and its own
// -data-dir. The standby performs a full resync, then mirrors every
// journal record (publishes, subscription churn, delivery acks) with a
// dual-fsync barrier — the leader only acknowledges a publish once the
// record is durable on both sides or the standby has been declared dead.
// When the standby's failure detector declares the leader dead, it
// promotes itself: it persists a higher fencing epoch (so the old
// leader's stale writes are rejected if it comes back) and runs ordinary
// crash-restart recovery over the mirrored directory.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/federate"
	"repro/internal/health"
	"repro/internal/noloss"
	"repro/internal/replicate"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

type options struct {
	listen    string
	alg       string
	groups    int
	subs      int
	modes     int
	budget    int
	threshold float64
	dynamic   bool
	seed      int64

	workers       int
	decideWorkers int
	maxInflight   int
	shedPolicy    string
	dataDir       string
	replicaOf     string
	epochDir      string
	shards        int
	shardsSet     bool // -shards given explicitly (even as 0)
	shardOf       string

	sessionTimeout time.Duration
	drainTimeout   time.Duration
	httpAddr       string
}

func (o options) validate() error {
	if o.workers < 1 {
		return fmt.Errorf("-workers = %d: must be ≥ 1", o.workers)
	}
	if o.decideWorkers < 0 {
		return fmt.Errorf("-decide-workers = %d: must be ≥ 0 (0 = GOMAXPROCS)", o.decideWorkers)
	}
	if o.maxInflight < 0 {
		return fmt.Errorf("-max-inflight = %d: must be ≥ 0", o.maxInflight)
	}
	if o.shedPolicy != "" {
		if _, err := health.ParsePolicy(o.shedPolicy); err != nil {
			return fmt.Errorf("-shed-policy: %w", err)
		}
	}
	if o.drainTimeout <= 0 {
		return fmt.Errorf("-drain-timeout = %v: must be > 0", o.drainTimeout)
	}
	if o.replicaOf != "" && o.dataDir == "" {
		return errors.New("-replica-of requires -data-dir (the standby mirrors into it)")
	}
	if o.epochDir != "" && o.dataDir == "" {
		return errors.New("-epoch-dir requires -data-dir (fencing is part of durable state)")
	}
	if o.shardsSet {
		if !powerOfTwo(o.shards) {
			return fmt.Errorf("-shards = %d: must be a power of two ≥ 1", o.shards)
		}
		if o.shardOf != "" {
			return errors.New("-shards and -shard-of are mutually exclusive: -shards runs the whole federation in one process, -shard-of serves one tile of it")
		}
		if o.dataDir != "" || o.replicaOf != "" || o.epochDir != "" {
			return errors.New("-shards is incompatible with -data-dir/-replica-of/-epoch-dir: run one durable shard per process with -shard-of instead")
		}
	}
	if o.shardOf != "" {
		if _, _, err := parseShardOf(o.shardOf); err != nil {
			return err
		}
	}
	return nil
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// parseShardOf parses the -shard-of INDEX/COUNT flag.
func parseShardOf(s string) (idx, n int, err error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return 0, 0, fmt.Errorf("-shard-of = %q: want INDEX/COUNT, e.g. 0/4", s)
	}
	idx, err1 := strconv.Atoi(s[:slash])
	n, err2 := strconv.Atoi(s[slash+1:])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("-shard-of = %q: want INDEX/COUNT, e.g. 0/4", s)
	}
	if !powerOfTwo(n) {
		return 0, 0, fmt.Errorf("-shard-of = %q: shard count %d must be a power of two ≥ 1", s, n)
	}
	if idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("-shard-of = %q: index %d out of range [0, %d)", s, idx, n)
	}
	return idx, n, nil
}

func main() {
	var opt options
	flag.StringVar(&opt.listen, "listen", "127.0.0.1:7070", "TCP listen address")
	flag.StringVar(&opt.alg, "alg", "forgy", "clustering algorithm")
	flag.IntVar(&opt.groups, "groups", 100, "multicast groups")
	flag.IntVar(&opt.subs, "subs", 1000, "pre-seeded subscriptions")
	flag.IntVar(&opt.modes, "modes", 1, "publication mixture modes")
	flag.IntVar(&opt.budget, "budget", 6000, "cell budget for grid algorithms")
	flag.Float64Var(&opt.threshold, "threshold", 0, "Fig 5 multicast threshold")
	flag.BoolVar(&opt.dynamic, "dynamic", false, "per-event unicast/multicast/broadcast selection")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.IntVar(&opt.workers, "workers", 4, "broker delivery workers")
	flag.IntVar(&opt.decideWorkers, "decide-workers", 0, "broker decision workers (0 = GOMAXPROCS)")
	flag.IntVar(&opt.maxInflight, "max-inflight", 0, "admission bound on in-pipeline events (0 = unlimited)")
	flag.StringVar(&opt.shedPolicy, "shed-policy", "", "overload policy: block, reject or shed")
	flag.StringVar(&opt.dataDir, "data-dir", "", "durable broker state directory")
	flag.StringVar(&opt.replicaOf, "replica-of", "", "run as a warm standby of the leader at this address")
	flag.StringVar(&opt.epochDir, "epoch-dir", "", "fencing-epoch directory (default: -data-dir)")
	flag.IntVar(&opt.shards, "shards", 0, "run an in-process federation of this many shards (power of two)")
	flag.StringVar(&opt.shardOf, "shard-of", "", "serve tile INDEX/COUNT of the derived partition")
	flag.DurationVar(&opt.sessionTimeout, "session-timeout", 10*time.Second, "disconnected-session resume window")
	flag.DurationVar(&opt.drainTimeout, "drain-timeout", 30*time.Second, "maximum graceful-drain time on shutdown")
	flag.StringVar(&opt.httpAddr, "http", "", "serve /metrics and /debug/pprof/ on this address")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			opt.shardsSet = true
		}
	})

	if err := opt.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-server: %v\n", err)
		os.Exit(2)
	}
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-server: %v\n", err)
		os.Exit(1)
	}
}

// buildWorld constructs the deterministic full world every role derives
// from the seed.
func buildWorld(opt options) (*workload.World, error) {
	topo := topology.Eval600
	topo.Seed = opt.seed
	g, err := topology.Generate(topo)
	if err != nil {
		return nil, err
	}
	return workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: opt.subs,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         opt.modes,
		Seed:             opt.seed + 1,
	})
}

// clusterConfig resolves the -alg selection into a core configuration.
func clusterConfig(opt options) (core.Config, error) {
	cfg := core.Config{Groups: opt.groups, CellBudget: opt.budget, Threshold: opt.threshold, DynamicMethod: opt.dynamic}
	switch opt.alg {
	case "kmeans":
		cfg.Algorithm = &cluster.KMeans{Variant: cluster.MacQueen}
	case "forgy":
		cfg.Algorithm = &cluster.KMeans{Variant: cluster.Forgy}
	case "mst":
		cfg.Algorithm = &cluster.MST{}
	case "pairs":
		cfg.Algorithm = &cluster.Pairwise{}
	case "approx-pairs":
		cfg.Algorithm = &cluster.Pairwise{Approx: true}
	case "noloss":
		cfg.NoLoss = &noloss.Config{PoolSize: 5000, Iterations: 8}
	default:
		return core.Config{}, fmt.Errorf("unknown algorithm %q", opt.alg)
	}
	return cfg, nil
}

// buildEngine constructs the world and clustering engine both roles share:
// a standby needs the identical engine for promotion, a leader for serving.
// With -shard-of the world is first restricted to the owned tile, so a
// leader/standby pair running the same flags agree on the base state.
func buildEngine(opt options, reg *telemetry.Registry) (*core.Engine, *workload.World, error) {
	w, err := buildWorld(opt)
	if err != nil {
		return nil, nil, err
	}
	cfg, err := clusterConfig(opt)
	if err != nil {
		return nil, nil, err
	}
	train := w.Events(2000, opt.seed+2)
	if opt.shardOf != "" {
		idx, n, _ := parseShardOf(opt.shardOf) // validated at startup
		tiles, err := federate.Derive(w, train, n)
		if err != nil {
			return nil, nil, err
		}
		w, err = federate.TileWorld(w, tiles[idx])
		if err != nil {
			return nil, nil, err
		}
		fmt.Printf("shard:      tile %d/%d %v, %d subscriptions\n", idx, n, tiles[idx], len(w.Subs))
	}

	start := time.Now()
	engine, err := core.NewFromWorld(w, train, cfg)
	if err != nil {
		return nil, nil, err
	}
	engine.Instrument(reg)
	fmt.Printf("engine:     %s, K=%d groups (%d non-empty), built in %v (%v)\n",
		opt.alg, opt.groups, engine.NumGroups(), time.Since(start).Round(time.Millisecond), engine.LastBuild())
	return engine, w, nil
}

// brokerOptions assembles the broker construction options shared by every
// role (the observer wires deliveries into the transport server).
func brokerOptions(opt options, reg *telemetry.Registry, srv *transport.Server) ([]broker.Option, error) {
	opts := []broker.Option{
		broker.WithWorkers(opt.workers),
		broker.WithDecideWorkers(opt.decideWorkers),
		broker.WithTelemetry(reg),
		broker.WithObserver(srv.Dispatch),
	}
	if opt.maxInflight > 0 || opt.shedPolicy != "" {
		hc := health.Config{MaxInflight: opt.maxInflight, Seed: opt.seed}
		if opt.shedPolicy != "" {
			hc.Policy, _ = health.ParsePolicy(opt.shedPolicy) // validated already
		}
		h, err := health.New(hc)
		if err != nil {
			return nil, err
		}
		opts = append(opts, broker.WithHealth(h))
	}
	return opts, nil
}

func run(opt options) error {
	reg := telemetry.NewRegistry()
	if opt.shardsSet {
		return runFederated(opt, reg)
	}
	engine, w, err := buildEngine(opt, reg)
	if err != nil {
		return err
	}
	if opt.replicaOf != "" {
		return runReplica(opt, reg, engine, w)
	}

	// A durable server is a replication leader (possibly solo forever):
	// followers dial the client listener and are routed by the first
	// frame. The handler closure is safe — no listener exists until
	// OpenLeader has returned and ldr is set.
	var ldr *replicate.Leader
	srvCfg := transport.Config{Registry: reg, SessionTimeout: opt.sessionTimeout}
	if opt.dataDir != "" {
		srvCfg.ReplHandler = func(conn net.Conn, r *wire.Reader, w *wire.Writer, hello wire.ReplHello) {
			ldr.Accept(conn, r, w, hello)
		}
	}
	srv := transport.NewServer(srvCfg)
	opts, err := brokerOptions(opt, reg, srv)
	if err != nil {
		return err
	}
	var b *broker.Broker
	if opt.dataDir != "" {
		ldr, err = replicate.OpenLeader(opt.dataDir, engine, replicate.LeaderConfig{EpochDir: opt.epochDir}, opts...)
		if err != nil {
			return err
		}
		b = ldr.Broker()
	} else {
		b, err = broker.New(engine, opts...)
		if err != nil {
			return err
		}
	}
	return serve(opt, reg, srv, b, ldr)
}

// runFederated runs the whole federation in one process: derive the
// N-tile partition from the seeded world, build one broker per tile, and
// serve the federate.Router — which sends each publish to the one tile
// owning its point and merges deliveries exactly-once — as the wire
// backend.
func runFederated(opt options, reg *telemetry.Registry) error {
	w, err := buildWorld(opt)
	if err != nil {
		return err
	}
	cfg, err := clusterConfig(opt)
	if err != nil {
		return err
	}
	train := w.Events(2000, opt.seed+2)
	tiles, err := federate.Derive(w, train, opt.shards)
	if err != nil {
		return err
	}

	srv := transport.NewServer(transport.Config{Registry: reg, SessionTimeout: opt.sessionTimeout})
	r, err := federate.NewRouter(federate.Config{Tiles: tiles, Observer: srv.Dispatch})
	if err != nil {
		return err
	}
	start := time.Now()
	for i, tile := range tiles {
		tw, err := federate.TileWorld(w, tile)
		if err != nil {
			r.Close()
			return err
		}
		engine, err := core.NewFromWorld(tw, train, cfg)
		if err != nil {
			r.Close()
			return err
		}
		bopts := []broker.Option{
			broker.WithWorkers(opt.workers),
			broker.WithDecideWorkers(opt.decideWorkers),
			broker.WithObserver(r.ShardObserver(i)),
		}
		if opt.maxInflight > 0 || opt.shedPolicy != "" {
			hc := health.Config{MaxInflight: opt.maxInflight, Seed: opt.seed}
			if opt.shedPolicy != "" {
				hc.Policy, _ = health.ParsePolicy(opt.shedPolicy) // validated already
			}
			h, err := health.New(hc)
			if err != nil {
				r.Close()
				return err
			}
			bopts = append(bopts, broker.WithHealth(h))
		}
		b, err := broker.New(engine, bopts...)
		if err != nil {
			r.Close()
			return err
		}
		if err := r.Attach(i, b); err != nil {
			b.Close()
			r.Close()
			return err
		}
		fmt.Printf("shard %d:    tile %v, %d subscriptions, %d non-empty groups (%v)\n",
			i, tile, len(tw.Subs), engine.NumGroups(), engine.LastBuild())
	}
	fmt.Printf("federation: %d shards (%s, K=%d each) built in %v\n",
		opt.shards, opt.alg, opt.groups, time.Since(start).Round(time.Millisecond))
	return serve(opt, reg, srv, r, nil)
}

// runReplica runs the warm-standby role: mirror the leader's journal
// stream until either a signal stops the process or the failure detector
// declares the leader dead — then promote and serve clients as the new
// leader (accepting followers in turn, so the fenced ex-leader can
// rejoin as the standby).
func runReplica(opt options, reg *telemetry.Registry, engine *core.Engine, w *workload.World) error {
	base := durable.BaseInfo{Hash: durable.HashBase(w.Subs), Count: int64(len(w.Subs))}
	flw, err := replicate.StartFollower(replicate.FollowerConfig{
		Dir:      opt.dataDir,
		EpochDir: opt.epochDir,
		Base:     base,
		Addr:     opt.replicaOf,
	})
	if err != nil {
		return err
	}
	fmt.Printf("standby:    mirroring %s into %s (epoch %d)\n", opt.replicaOf, opt.dataDir, flw.Term())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigs:
		signal.Stop(sigs)
		fmt.Println("standby:    stopping (leader still alive)")
		return flw.Close()
	case <-flw.LeaderDead():
		signal.Stop(sigs)
	}
	fmt.Println("failover:   leader declared dead; promoting")

	var ldr *replicate.Leader
	srvCfg := transport.Config{Registry: reg, SessionTimeout: opt.sessionTimeout}
	srvCfg.ReplHandler = func(conn net.Conn, r *wire.Reader, w *wire.Writer, hello wire.ReplHello) {
		ldr.Accept(conn, r, w, hello)
	}
	srv := transport.NewServer(srvCfg)
	opts, err := brokerOptions(opt, reg, srv)
	if err != nil {
		return err
	}
	ldr, err = flw.PromoteLeader(engine, replicate.LeaderConfig{EpochDir: opt.epochDir}, opts...)
	if err != nil {
		return err
	}
	flw.Close() // replication loop only; the promoted broker owns the dir
	fmt.Printf("promoted:   serving as leader (epoch %d)\n", ldr.Term())
	return serve(opt, reg, srv, ldr.Broker(), ldr)
}

// serve owns the listening phase for every role. ldr is non-nil when the
// broker is a replication leader; it is closed after the transport drain
// so the final checkpoint ships to a connected follower first, and so the
// replication session (which Serve waits on like any connection) ends.
func serve(opt options, reg *telemetry.Registry, srv *transport.Server, b transport.Backend, ldr *replicate.Leader) error {
	closeBroker := func() {
		if ldr != nil {
			ldr.Close()
		} else {
			b.Close()
		}
	}
	if opt.dataDir != "" {
		if db, ok := b.(*broker.Broker); ok {
			rec := db.Recovery()
			fmt.Printf("durable:    %s: checkpoint %v, %d journal(s), %d records replayed in %v\n",
				opt.dataDir, rec.CheckpointLoaded, rec.JournalsReplayed, rec.RecordsReplayed,
				rec.Duration.Round(time.Microsecond))
		}
	}
	if ldr != nil {
		fmt.Printf("replicate:  epoch %d; followers attach on the client listener\n", ldr.Term())
	}

	ln, err := net.Listen("tcp", opt.listen)
	if err != nil {
		closeBroker()
		return err
	}
	fmt.Printf("listening:  %s (wire protocol v%d)\n", ln.Addr(), wire.Version)
	if opt.httpAddr != "" {
		tsrv, err := telemetry.Serve(opt.httpAddr, reg, nil)
		if err != nil {
			ln.Close()
			closeBroker()
			return err
		}
		defer tsrv.Close()
		fmt.Printf("telemetry:  serving /metrics, /metrics.json, /debug/pprof/ on http://%s\n", tsrv.Addr())
	}

	// Graceful drain on the first signal: stop accepting, flush every
	// delivery to the connected clients, close the journal, exit 0. A
	// second signal forces an immediate stop. Any drain failure — deadline
	// hit, final checkpoint or journal close error — propagates to a
	// non-zero exit.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "pubsub-server: draining (signal again to force stop)")
		ctx, cancel := context.WithTimeout(context.Background(), opt.drainTimeout)
		defer cancel()
		go func() {
			<-sigs
			cancel()
		}()
		err := srv.Shutdown(ctx)
		if ldr != nil {
			// The broker is closed (its final checkpoint shipped through
			// the live session); now sever replication so the follower
			// connection Serve is waiting on unwinds.
			if cerr := ldr.Close(); err == nil {
				err = cerr
			}
		}
		shutdownErr <- err
	}()

	if err := srv.Serve(ln, b); !errors.Is(err, transport.ErrServerClosed) {
		return err
	}
	if err := <-shutdownErr; err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Println("drained:    all sessions flushed; broker closed")
	return nil
}
