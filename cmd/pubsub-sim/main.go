// Command pubsub-sim runs one end-to-end simulation: generate a network and
// a stock workload, precompute multicast groups with a chosen algorithm,
// replay an event stream through the Engine, and report per-method costs
// and the improvement over unicast.
//
// Usage:
//
//	pubsub-sim [flags]
//
// Flags:
//
//	-alg NAME     clustering algorithm: kmeans, forgy, mst, pairs,
//	              approx-pairs, noloss (default forgy)
//	-groups K     number of multicast groups (default 100)
//	-subs N       subscriptions (default 1000)
//	-modes N      publication mixture modes (default 1)
//	-events N     replayed events (default 500)
//	-budget N     cell budget for grid algorithms (default 6000)
//	-threshold F  Fig 5 threshold (default 0 = always multicast)
//	-dynamic      enable per-event unicast/multicast/broadcast selection
//	-subs-trace F load subscriptions from a trace file instead of generating
//	-seed N       random seed (default 1)
//
// Broker replay: a positive -churn-rate or a -data-dir replays the
// evaluation stream through a live broker after the cost report and adds
// its delivery accounting.
//
// Churn flags (a positive -churn-rate interleaves live
// Subscribe/Unsubscribe operations with the event stream; every operation
// publishes a fresh decision snapshot):
//
//	-churn-rate R       expected churn operations per published event,
//	                    scheduled as a Poisson process (0 = none)
//	-decide-workers N   concurrent decision workers reading the snapshot
//	                    (0 = GOMAXPROCS, 1 = serial in publish order)
//
// Durability flags (see the Durability & recovery section of DESIGN.md):
//
//	-data-dir DIR  persist broker state (write-ahead journal + checkpoints)
//	               in DIR and recover it on the next run. SIGINT/SIGTERM close the broker cleanly,
//	               writing a final checkpoint before the process exits.
//
// Observability flags (see the Observability section of DESIGN.md):
//
//	-http ADDR     after the replay, serve /metrics (Prometheus),
//	               /metrics.json, /trace (JSONL) and /debug/pprof/ on ADDR
//	               until interrupted
//	-trace-rate F  fraction of published events traced end to end
//	               (deterministic sampling; default 1 = every event)
//	-trace-cap N   trace ring-buffer capacity (default 1024)
//
// Wire-client flags (-connect switches the whole run into client mode:
// instead of simulating locally, connect to a pubsub-server, subscribe to
// the full event space, publish the evaluation stream and verify the
// zero-loss exactly-once contract — any loss or duplicate is a non-zero
// exit):
//
//	-connect ADDR    pubsub-server address to dial
//	-client-node N   node id the client subscribes as (default 7)
//	-credits N       delivery credit window granted to the server
//	-bounce-at I     force a reconnect before event index I, proving
//	                 exactly-once across a session resume (-1 = never)
//	-recv-timeout D  delivery-completion timeout (default 60s)
//
// Trace files use the workload text format (see ReadSubscriptions); the
// network is still generated, so node ids in the trace must fit it.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

type options struct {
	alg       string
	groups    int
	subs      int
	modes     int
	events    int
	budget    int
	threshold float64
	dynamic   bool
	subsTrace string
	seed      int64

	churnRate     float64
	decideWorkers int

	dataDir string

	httpAddr  string
	traceRate float64
	traceCap  int

	connect     string
	clientNode  int
	credits     int
	bounceAt    int64
	recvTimeout time.Duration
}

// validate rejects malformed replay and observability flags with a clear
// error before any expensive work runs.
func (o options) validate() error {
	if o.churnRate < 0 {
		return fmt.Errorf("-churn-rate = %v: must be ≥ 0", o.churnRate)
	}
	if o.decideWorkers < 0 {
		return fmt.Errorf("-decide-workers = %d: must be ≥ 0 (0 = GOMAXPROCS)", o.decideWorkers)
	}
	if o.traceRate < 0 || o.traceRate > 1 {
		return fmt.Errorf("-trace-rate = %v: must be in [0, 1]", o.traceRate)
	}
	if o.traceCap < 1 {
		return fmt.Errorf("-trace-cap = %d: must be ≥ 1", o.traceCap)
	}
	if o.connect != "" {
		if o.credits < 1 {
			return fmt.Errorf("-credits = %d: must be ≥ 1", o.credits)
		}
		if o.clientNode < 0 {
			return fmt.Errorf("-client-node = %d: must be ≥ 0", o.clientNode)
		}
		if o.recvTimeout <= 0 {
			return fmt.Errorf("-recv-timeout = %v: must be > 0", o.recvTimeout)
		}
	}
	return nil
}

// replayRequested reports whether the run replays the evaluation stream
// through a live broker.
func (o options) replayRequested() bool {
	return o.churnRate > 0 || o.dataDir != ""
}

func main() {
	var opt options
	flag.StringVar(&opt.alg, "alg", "forgy", "clustering algorithm")
	flag.IntVar(&opt.groups, "groups", 100, "multicast groups")
	flag.IntVar(&opt.subs, "subs", 1000, "subscriptions")
	flag.IntVar(&opt.modes, "modes", 1, "publication mixture modes")
	flag.IntVar(&opt.events, "events", 500, "replayed events")
	flag.IntVar(&opt.budget, "budget", 6000, "cell budget for grid algorithms")
	flag.Float64Var(&opt.threshold, "threshold", 0, "Fig 5 multicast threshold")
	flag.BoolVar(&opt.dynamic, "dynamic", false, "per-event unicast/multicast/broadcast selection")
	flag.StringVar(&opt.subsTrace, "subs-trace", "", "load subscriptions from a trace file")
	flag.Int64Var(&opt.seed, "seed", 1, "random seed")
	flag.Float64Var(&opt.churnRate, "churn-rate", 0, "live Subscribe/Unsubscribe ops per event during the broker replay (0 = none)")
	flag.IntVar(&opt.decideWorkers, "decide-workers", 0, "broker decision workers (0 = GOMAXPROCS, 1 = serial ordered)")
	flag.StringVar(&opt.dataDir, "data-dir", "", "durable broker state directory: journal + checkpoints, recovered on restart")
	flag.StringVar(&opt.httpAddr, "http", "", "serve /metrics, /trace and /debug/pprof/ on this address after the replay")
	flag.Float64Var(&opt.traceRate, "trace-rate", 1, "fraction of published events traced (deterministic sampling)")
	flag.IntVar(&opt.traceCap, "trace-cap", 1024, "trace ring-buffer capacity")
	flag.StringVar(&opt.connect, "connect", "", "run as a wire client against a pubsub-server at this address")
	flag.IntVar(&opt.clientNode, "client-node", 7, "node id the wire client subscribes as")
	flag.IntVar(&opt.credits, "credits", 256, "delivery credit window granted to the server (wire client)")
	flag.Int64Var(&opt.bounceAt, "bounce-at", -1, "force a reconnect before this event index (-1 = never)")
	flag.DurationVar(&opt.recvTimeout, "recv-timeout", 60*time.Second, "wire client delivery-completion timeout")
	flag.Parse()

	if err := opt.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-sim: %v\n", err)
		os.Exit(2)
	}
	entry := run
	if opt.connect != "" {
		entry = runClient
	}
	if err := entry(opt); err != nil {
		fmt.Fprintf(os.Stderr, "pubsub-sim: %v\n", err)
		os.Exit(1)
	}
}

// testHookServe, when non-nil, is invoked with the telemetry server's
// address after the replay instead of blocking forever; the integration
// test uses it to probe the endpoints deterministically.
var testHookServe func(addr string)

func run(opt options) error {
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if opt.httpAddr != "" {
		reg = telemetry.NewRegistry()
		var err error
		tracer, err = telemetry.NewTracer(telemetry.TracerConfig{
			Capacity:   opt.traceCap,
			SampleRate: opt.traceRate,
			Seed:       opt.seed,
		})
		if err != nil {
			return err
		}
	}

	topo := topology.Eval600
	topo.Seed = opt.seed
	g, err := topology.Generate(topo)
	if err != nil {
		return err
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: opt.subs,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         opt.modes,
		Seed:             opt.seed + 1,
	})
	if err != nil {
		return err
	}
	if opt.subsTrace != "" {
		f, err := os.Open(opt.subsTrace)
		if err != nil {
			return err
		}
		loaded, err := workload.ReadSubscriptions(f)
		f.Close()
		if err != nil {
			return err
		}
		w, err = workload.NewCustomWorld(g, w.Axes, loaded)
		if err != nil {
			return fmt.Errorf("trace workload: %w", err)
		}
	}
	train := w.Events(2000, opt.seed+2)
	eval := w.Events(opt.events, opt.seed+3)

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
		return fmt.Errorf("unknown algorithm %q", opt.alg)
	}

	start := time.Now()
	engine, err := core.NewFromWorld(w, train, cfg)
	if err != nil {
		return err
	}
	buildTime := time.Since(start)
	engine.Instrument(reg) // no-op with a nil registry

	matcher, err := matching.NewRTree(w)
	if err != nil {
		return err
	}
	base, err := sim.MeasureBaselines(engine.Model(), w, matcher, eval)
	if err != nil {
		return err
	}

	var totals core.Costs
	methodCount := map[multicast.Method]int{}
	for _, ev := range eval {
		d, c, err := engine.Publish(ev)
		if err != nil {
			return err
		}
		totals.Network += c.Network
		totals.AppLevel += c.AppLevel
		methodCount[d.Method]++
	}
	n := float64(len(eval))
	netAvg := totals.Network / n
	almAvg := totals.AppLevel / n

	fmt.Printf("network:    %d nodes, %d edges (seed %d)\n", g.NumNodes(), g.NumEdges(), opt.seed)
	fmt.Printf("workload:   %d subscriptions on %d subscriber nodes, %d-mode publications\n",
		len(w.Subs), w.NumSubscribers(), opt.modes)
	fmt.Printf("strategy:   %s, K=%d groups (%d non-empty), built in %v\n",
		opt.alg, opt.groups, engine.NumGroups(), buildTime.Round(time.Millisecond))
	fmt.Printf("decisions:  %d multicast, %d unicast, %d broadcast of %d events\n",
		methodCount[multicast.NetworkMulticast], methodCount[multicast.Unicast],
		methodCount[multicast.Broadcast], len(eval))
	fmt.Printf("baselines:  unicast %.0f   broadcast %.0f   ideal %.0f (per event)\n",
		base.Unicast, base.Broadcast, base.Ideal)
	fmt.Printf("cost:       network multicast %.0f (%.1f%% improvement)\n",
		netAvg, sim.Improvement(base, netAvg))
	fmt.Printf("            app-level multicast %.0f (%.1f%% improvement)\n",
		almAvg, sim.Improvement(base, almAvg))

	if opt.replayRequested() {
		if err := replay(opt, engine, eval, reg, tracer); err != nil {
			return err
		}
	}
	return serveTelemetry(opt, reg, tracer)
}

// serveTelemetry exposes the run's registry and tracer over HTTP when
// -http is set. Outside tests it blocks until the process is interrupted.
func serveTelemetry(opt options, reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	if opt.httpAddr == "" {
		return nil
	}
	srv, err := telemetry.Serve(opt.httpAddr, reg, tracer)
	if err != nil {
		return err
	}
	fmt.Printf("telemetry:  serving /metrics, /metrics.json, /trace, /debug/pprof/ on http://%s (interrupt to exit)\n", srv.Addr())
	if testHookServe != nil {
		testHookServe(srv.Addr())
		return srv.Close()
	}
	select {}
}

// closeOnSignal installs a SIGINT/SIGTERM handler that closes the broker
// before the process exits — for a durable broker Close writes a final
// checkpoint, so an interrupted run restarts from a clean snapshot instead
// of dying mid-write and replaying the journal. The returned function
// disarms the handler and performs the same close-exactly-once for the
// normal shutdown path; both paths share one sync.Once.
func closeOnSignal(b *broker.Broker) func() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	var once sync.Once
	closeBroker := func() { once.Do(func() { b.Close() }) }
	go func() {
		if _, ok := <-sigs; !ok {
			return
		}
		fmt.Fprintln(os.Stderr, "pubsub-sim: interrupted; closing broker")
		closeBroker()
		os.Exit(1)
	}()
	return func() {
		signal.Stop(sigs)
		close(sigs)
		closeBroker()
	}
}

// replay publishes the evaluation stream through a live broker — durable
// under -data-dir, with live churn under -churn-rate — and reports its
// delivery accounting.
func replay(opt options, engine *core.Engine, eval []workload.Event, reg *telemetry.Registry, tracer *telemetry.Tracer) error {
	opts := []broker.Option{
		broker.WithTelemetry(reg), // nil keeps the broker's private registry
		broker.WithTracer(tracer),
		broker.WithDecideWorkers(opt.decideWorkers),
	}
	var b *broker.Broker
	var err error
	if opt.dataDir != "" {
		b, err = broker.Open(opt.dataDir, engine, opts...)
	} else {
		b, err = broker.New(engine, opts...)
	}
	if err != nil {
		return err
	}
	// closeBroker is shared between the normal path and the signal handler:
	// whichever runs first performs the real Close (for a durable broker
	// that writes a final checkpoint), the other is a no-op.
	closeBroker := closeOnSignal(b)
	if opt.dataDir != "" {
		rec := b.Recovery()
		fmt.Printf("durable:    %s: checkpoint %v, %d journal(s), %d records replayed, %d publishes redelivered in %v\n",
			opt.dataDir, rec.CheckpointLoaded, rec.JournalsReplayed, rec.RecordsReplayed,
			rec.Outstanding, rec.Duration.Round(time.Microsecond))
		if rec.TornTruncations > 0 {
			fmt.Printf("            %d torn journal tail(s) truncated (%d bytes)\n",
				rec.TornTruncations, rec.TornTailBytes)
		}
	}
	var churn []sim.ChurnOp
	if opt.churnRate > 0 {
		churn, err = sim.GenerateChurn(engine.World(), sim.ChurnConfig{
			Rate: opt.churnRate, Events: len(eval), Seed: opt.seed + 400,
		})
		if err != nil {
			closeBroker()
			return err
		}
	}
	var slots []int // live churned subscriptions, insertion order
	next := 0
	for i, ev := range eval {
		for next < len(churn) && churn[next].BeforeEvent <= i {
			op := churn[next]
			if op.Subscribe {
				slot, err := b.Subscribe(op.Sub)
				if err != nil {
					closeBroker()
					return err
				}
				slots = append(slots, slot)
			} else {
				slot := slots[op.Target]
				slots = append(slots[:op.Target], slots[op.Target+1:]...)
				if err := b.Unsubscribe(slot); err != nil {
					closeBroker()
					return err
				}
			}
			next++
		}
		if err := b.Publish(ev); err != nil {
			closeBroker()
			return err
		}
	}
	closeBroker()
	st := b.Stats()

	if opt.churnRate > 0 {
		fmt.Printf("churn:      rate %.2f ops/event: %d subscribes, %d unsubscribes, %d snapshot swaps (%d decision workers)\n",
			opt.churnRate, st.Subscribes, st.Unsubscribes, st.SnapshotSwaps, b.DecideWorkers())
	}
	fmt.Printf("broker:     %d deliveries, %d deduped\n", st.Deliveries, st.Deduped)
	return nil
}
