package main

import (
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/workload"
)

// A traced run spends -seconds in three parts: an open-loop phase against
// the real daemons (the counters they serve and the whole-process
// numbers), a closed-loop saturation probe against the same daemons, and
// an open-loop phase through the in-process traced stack.
func traceSplit(seconds int) (daemon, sat, inproc time.Duration) {
	total := time.Duration(seconds) * time.Second
	daemon = total * 2 / 5
	sat = total / 5
	return daemon, sat, total - daemon - sat
}

const (
	// satInflight is the closed loop's concurrency.
	satInflight = 32
	// satMaxRate sizes the saturation probe's delivery records: no
	// deployment on this class of hardware acknowledges this many events/s.
	satMaxRate = 100000
)

// span names; the chain below tiles an event's life from its due time to
// the receipt of its last delivery, so the self times sum to the latency.
const (
	spanEvent      = "event" // root: due → last delivery received
	spanLate       = "generator.late"
	spanIngress    = "transport.ingress"
	spanRouter     = "federate.router"
	spanPublishSeq = "broker.publish_seq"
	spanDecideWait = "broker.decide_wait"
	spanFanFirst   = "broker.fanout_first"
	spanFanSpan    = "broker.fanout_span"
	spanEgress     = "transport.egress"
)

var budgetOrder = []string{spanLate, spanIngress, spanRouter, spanPublishSeq, spanDecideWait, spanFanFirst, spanFanSpan, spanEgress, spanEvent}

// tracedPhase is one open-loop phase through the in-process stack.
type tracedPhase struct {
	load      loadStats
	churn     churnResult
	events    [][]span  // spans per timed event
	backendUs []float64 // Backend.PublishSeq durations of the timed events
	shardUs   []float64 // fed4: the slowest Shard.DecideSeq of each timed event
	unjoined  int       // timed events with a wrapper record missing
}

// runTracedPhase drives the first n events of tr through st at the
// workload's rate and joins the client's records with the wrappers'.
func runTracedPhase(st *stack, tr *traffic, n int, warm, window time.Duration, pub *transport.Conn,
	sink *atomic.Pointer[collector], seqBase int64, churn bool) tracedPhase {
	wl := st.wl
	st.rec.reset()
	d := drive(wl, tr, tr.events[:n], connEndpoints(pub), sink, seqBase, st.rec.start, warm, window, churn)
	ph := tracedPhase{load: d.load, churn: d.churn}
	pubs, col := d.pubs, d.col

	rec := st.rec
	rec.mu.Lock()
	bySeq := make(map[int64]*pubSpan, len(rec.pubs))
	for _, p := range rec.pubs {
		bySeq[p.seq] = p
	}
	rec.mu.Unlock()
	fed := wl.shape == shapeFed4
	backendName := spanPublishSeq
	if fed {
		backendName = spanRouter
	}
	for _, p := range pubs {
		if p.err != nil || p.due < warm || p.due >= warm+window {
			continue
		}
		i := p.seq - col.base
		if i < 0 || i >= int64(len(col.recs)) || col.recs[i].mask == 0 {
			continue
		}
		ps := bySeq[p.seq]
		if ps == nil || p.seq >= int64(len(rec.disp)) {
			ph.unjoined++
			continue
		}
		first, last := rec.disp[p.seq].firstEnter.Load()-1, rec.disp[p.seq].lastExit.Load()-1
		var decided int64 = -1
		if fed {
			for _, sh := range ps.shards {
				if sh.local >= 0 && sh.local < int64(len(rec.decided[sh.shard])) {
					if d := rec.decided[sh.shard][sh.local].Load() - 1; d > decided {
						decided = d
					}
				}
			}
		} else {
			decided = rec.decided[0][p.seq].Load() - 1
		}
		if first < 0 || last < 0 || decided < 0 {
			ph.unjoined++
			continue
		}
		// Boundaries, forced monotone: the decision can precede the
		// PublishSeq return (the pipeline runs beside the caller), in which
		// case the wait for it is zero and the next segment starts where
		// this one would have.
		b := [8]int64{int64(p.due), int64(p.sent), ps.enter, ps.ret, decided, first, last, int64(col.recs[i].last)}
		for k := 1; k < len(b); k++ {
			if b[k] < b[k-1] {
				b[k] = b[k-1]
			}
		}
		spans := []span{
			{Seq: p.seq, Name: spanEvent, Start: b[0], End: b[7]},
			{Seq: p.seq, Name: spanLate, Parent: spanEvent, Start: b[0], End: b[1]},
			{Seq: p.seq, Name: spanIngress, Parent: spanEvent, Start: b[1], End: b[2]},
			{Seq: p.seq, Name: backendName, Parent: spanEvent, Start: b[2], End: b[3]},
			{Seq: p.seq, Name: spanDecideWait, Parent: spanEvent, Start: b[3], End: b[4]},
			{Seq: p.seq, Name: spanFanFirst, Parent: spanEvent, Start: b[4], End: b[5]},
			{Seq: p.seq, Name: spanFanSpan, Parent: spanEvent, Start: b[5], End: b[6]},
			{Seq: p.seq, Name: spanEgress, Parent: spanEvent, Start: b[6], End: b[7]},
		}
		if fed {
			var slowest int64
			for _, sh := range ps.shards {
				spans = append(spans, span{Seq: p.seq, Name: spanPublishSeq, Parent: spanRouter, Start: sh.enter, End: sh.ret})
				slowest = max(slowest, sh.ret-sh.enter)
			}
			ph.shardUs = append(ph.shardUs, float64(slowest)/1e3)
		}
		ph.events = append(ph.events, spans)
		ph.backendUs = append(ph.backendUs, float64(ps.ret-ps.enter)/1e3)
	}
	return ph
}

// runTraced is `bench run -trace 1`: every per-layer metric.
func runTraced(cfg *runConfig, launch launcher, spansPath string) (result, error) {
	res := result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds}
	p, err := prepare(cfg, launch)
	if err != nil {
		return res, err
	}
	res.Env = p.env
	wl := p.wl
	daemonWin, satDur, inprocWin := traceSplit(cfg.seconds)
	perSec := time.Duration(wl.rate)
	nDaemon := int((wl.warmup + daemonWin) * perSec / time.Second)
	nInproc := int((wl.warmup + inprocWin) * perSec / time.Second)
	tr, err := makeTraffic(wl, cfg.seed, max(nDaemon, nInproc))
	if err != nil {
		return res, err
	}
	all := tr.events
	fmt.Fprintf(cfg.log, "workload %s seed %d traced: %d subs, %d ev/s; real daemons %v + saturation %v, in-process stack %v (each open loop after %v warm-up)\n",
		wl.name, cfg.seed, wl.subs, wl.rate, daemonWin, satDur, inprocWin, wl.warmup)
	fmt.Fprintf(cfg.log, "env: %s\n", envString(p.env))
	m := newMetricSet(cfg.bench.PerLayer)

	tr.events = all[:nDaemon]
	dp, err := traceDaemons(p, tr, all, daemonWin, satDur, m)
	if err != nil {
		return res, err
	}
	tr.events = all[:nInproc]
	sp, err := traceStack(p, tr, inprocWin, m)
	if err != nil {
		return res, err
	}

	// Direct calls into the layers; the stack's engines are the benchmark's
	// again now that their brokers are closed.
	if err := directWire(all, m); err != nil {
		return res, err
	}
	if err := directCore(sp.engine, all, m); err != nil {
		return res, err
	}
	if err := directDurable(p.scratch, all, m); err != nil {
		return res, err
	}
	if wl.shape != shapeFed4 {
		d, err := directDerive(tr.world)
		if err != nil {
			return res, err
		}
		m.set("federate.derive_s", d.Seconds())
	}

	if spansPath == "" {
		spansPath = filepath.Join(cfg.buildDir(), "spans.jsonl")
	}
	if err := writeSpans(spansPath, sp.traced.events); err != nil {
		return res, err
	}

	fmt.Fprintf(cfg.log, "per layer:\n")
	m.print(cfg.log)
	printBudget(cfg.log, sp.budget, spansPath)
	fmt.Fprintf(cfg.log, "tracing overhead: deliver p50 %.1f us through the traced stack, %.1f us against the untraced daemons earlier in this run (both medians of window medians)\n",
		sp.traced.load.p50Us, dp.open.load.p50Us)
	if wl.shape == shapeReplicated {
		fmt.Fprintf(cfg.log, "replica barrier: Backend.PublishSeq p50 %.1f us with the standby, %.1f us without (%d events)\n",
			median(sp.traced.backendUs), median(sp.solo.backendUs), len(sp.solo.backendUs))
	}
	if wl.churnPairs > 0 {
		fmt.Fprintf(cfg.log, "churn beside the traced stream: subscribe p50 %.0f us, unsubscribe p50 %.0f us over %d pairs\n",
			median(sp.traced.churn.subUs), median(sp.traced.churn.unsubUs), len(sp.traced.churn.subUs))
	}
	if miss := m.missing(); len(miss) > 0 {
		return res, fmt.Errorf("metrics never set: %v", miss)
	}

	res.Metrics = m.json()
	dl, tl, sl := dp.open.load, sp.traced.load, sp.solo.load
	res.Attempted = dl.attempted + int(dp.satDone+dp.satFailed) + tl.attempted + sl.attempted + dp.open.churn.ops + sp.traced.churn.ops + sp.probe.ops
	res.Failed = dl.violations() + int(dp.satFailed) + dp.satIncomplete + tl.violations() + sl.violations() + dp.open.churn.failed + sp.traced.churn.failed
	res.Correct = res.Failed == 0 && dl.stray+tl.stray+sl.stray+dp.satStray == 0 && dp.open.mirrorErr == nil
	if dp.open.mirrorErr != nil {
		fmt.Fprintf(cfg.log, "deployment: %v\n", dp.open.mirrorErr)
	}
	fmt.Fprintf(cfg.log, "correctness: daemons %d events (%d violations), saturation %d events (%d failed, %d not delivered exactly once), traced stack %d events (%d violations, %d unjoined)\n",
		dl.attempted, dl.violations(), dp.satDone+dp.satFailed, dp.satFailed, dp.satIncomplete, tl.attempted, tl.violations(), sp.traced.unjoined)
	return res, nil
}

// daemonPart is what the traced run takes from the real daemons.
type daemonPart struct {
	open                    *phaseResult
	satDone, satFailed      int64
	satIncomplete, satStray int
}

// traceDaemons deploys the workload once and runs the open-loop phase
// (counters the daemons serve, whole-process numbers) and then the
// closed-loop saturation probe against the same daemons. all is the stream
// the probe cycles through.
func traceDaemons(p *prepared, tr *traffic, all []workload.Event, window, satDur time.Duration, m *metricSet) (*daemonPart, error) {
	wl := p.wl
	dep, err := p.launch(wl, p.scratch, tr)
	if err != nil {
		return nil, err
	}
	defer dep.destroy()
	sink := dep.startReceivers()
	ph, err := openLoopPhase(dep, tr, window, sink, 0)
	if err != nil {
		return nil, err
	}
	peak, err := readProc(dep.pids[0])
	if err != nil {
		return nil, err
	}
	setServerLayer(m, ph, peak)
	setDaemonCounters(m, ph, wl)
	m.set("wire.bytes_per_event", float64(ph.wireBytes)/ph.events())

	satMax := int64(satMaxRate) * int64(satDur/time.Second+1)
	if wl.maxEvents > 0 {
		satMax = int64(wl.maxEvents - len(tr.events))
	}
	col := newCollector(tr, ph.seqEnd, int(satMax), time.Now())
	sink.Store(col)
	done, failed, elapsed := closedLoop(all, satInflight, satDur, satMax, connEndpoints(dep.pub))
	incomplete := awaitComplete(col, int(done), 5*time.Second)
	sink.Store(nil)
	m.set("pubsub-server.sat_throughput_eps", float64(done)/elapsed.Seconds())
	return &daemonPart{open: ph, satDone: done, satFailed: failed, satIncomplete: incomplete, satStray: int(col.stray.Load())}, nil
}

// stackPart is what the traced run takes from the in-process stack.
type stackPart struct {
	traced tracedPhase
	solo   tracedPhase // replicated only: the same stack after the standby is dropped
	probe  churnResult
	budget budget
	engine *core.Engine // handed back by the stack's first broker
}

// traceStack assembles the traced stack, drives the workload's stream
// through it and fills the metrics that come from its wrappers.
func traceStack(p *prepared, tr *traffic, window time.Duration, m *metricSet) (*stackPart, error) {
	wl := p.wl
	n := len(tr.events)
	// Sequence-indexed records: the traced stream, the subscription probe
	// and the standby-less phase, with slack.
	st, err := buildStack(wl, tr, p.scratch, 2*n+4096)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()
	cl, err := dialClients(st.ln.Addr().String(), tr)
	if err != nil {
		return nil, err
	}
	defer cl.close()
	sink := cl.startReceivers()
	sp := &stackPart{}
	sp.traced = runTracedPhase(st, tr, n, wl.warmup, window, cl.pub, sink, 0, true)
	if st.leader != nil && st.leader.Solo() {
		return nil, fmt.Errorf("traced stack: the leader lost its standby during the run")
	}
	rec := st.rec
	observerCalls, dispatchCalls, dispatchNs, shardObsNs := rec.observerCalls.Load(), rec.dispatchCalls.Load(), rec.dispatchNs.Load(), rec.shardObsNs.Load()
	bud := makeBudget(sp.traced.events, spanEvent, budgetOrder)
	sp.budget = bud

	m.set("pubsub-server.traced_p50_us", sp.traced.load.p50Us)
	m.set("transport.ingress_self_us", bud.row(spanIngress))
	m.set("transport.egress_self_us", bud.row(spanEgress))
	m.set("transport.publish_rtt_p50_us", sp.traced.load.ackP50Us)
	m.set("transport.dispatch_ns", float64(dispatchNs)/float64(max(dispatchCalls, 1)))
	m.set("broker.publish_seq_self_us", bud.row(spanPublishSeq))
	m.set("broker.decide_wait_us", bud.row(spanDecideWait))
	m.set("broker.fanout_first_us", bud.row(spanFanFirst))
	m.set("broker.fanout_span_us", bud.row(spanFanSpan))
	m.set("broker.deliveries_per_event", float64(observerCalls)/float64(n))
	m.set("core.engine_build_s", st.engineBuild.Seconds())

	if wl.shape == shapeFed4 {
		fs := st.router.Stats()
		m.set("federate.router_self_us", bud.row(spanRouter))
		m.set("federate.shard_decide_seq_us", median(sp.traced.shardUs))
		m.set("federate.feed_ns", float64(shardObsNs-dispatchNs)/float64(max(observerCalls, 1)))
		m.set("federate.tiles_per_event", float64(fs.Fanout)/float64(max(fs.Published, 1)))
		m.set("federate.dedup_hits", float64(fs.Suppressed))
		m.set("federate.derive_s", st.derive.Seconds())
	} else {
		m.absent("federate.router_self_us", "federate.shard_decide_seq_us", "federate.feed_ns", "federate.tiles_per_event", "federate.dedup_hits")
	}

	// Subscription round trips on the quiescent stack.
	for k := 0; k < 20; k++ {
		churnPair(connEndpoints(cl.pub), tr.churnOwner, tr.churnRects[k%len(tr.churnRects)], &sp.probe)
	}
	if sp.probe.failed > 0 {
		return nil, fmt.Errorf("subscription probe: %v", sp.probe.firstErr)
	}
	m.set("broker.subscribe_p50_us", median(sp.probe.subUs))
	m.set("broker.unsubscribe_p50_us", median(sp.probe.unsubUs))

	// The replica barrier: the same stack, same traffic, standby dropped.
	if wl.shape == shapeReplicated {
		if err := st.dropStandby(); err != nil {
			return nil, err
		}
		const soloWarm, soloWin = 500 * time.Millisecond, 1500 * time.Millisecond
		nSolo := min(int((soloWarm+soloWin)*time.Duration(wl.rate)/time.Second), n)
		sp.solo = runTracedPhase(st, tr, nSolo, soloWarm, soloWin, cl.pub, sink, int64(n), false)
		m.set("replicate.barrier_added_us", median(sp.traced.backendUs)-median(sp.solo.backendUs))
	} else {
		m.absent("replicate.barrier_added_us")
	}

	cl.close()
	closed = true
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("closing the traced stack: %w", err)
	}
	sp.engine = st.engines[0]
	return sp, nil
}

// setDaemonCounters fills the *(daemon)* metrics: deltas of counters the
// serving daemon publishes on /metrics.json over the open-loop phase. A
// counter the deployment shape does not register is absent.
func setDaemonCounters(m *metricSet, ph *phaseResult, wl workloadDef) {
	perEvent := func(name, scope, counter string) {
		if v, ok := ph.counterDelta(scope, counter); ok {
			m.set(name, v/ph.events())
		} else {
			m.absent(name)
		}
	}
	total := func(name, scope, counter string) {
		if v, ok := ph.counterDelta(scope, counter); ok {
			m.set(name, v)
		} else {
			m.absent(name)
		}
	}
	if v, ok := ph.histCount("wire", "flush_frames"); ok {
		m.set("transport.flush_frames_per_event", v/ph.events())
	} else {
		m.absent("transport.flush_frames_per_event")
	}
	if v, ok := ph.histMean("wire", "deliver_batch_size"); ok {
		m.set("transport.deliver_batch_mean", v)
	} else {
		m.absent("transport.deliver_batch_mean")
	}
	total("transport.credit_stalls", "wire", "credit_stalls")
	total("transport.dispatch_stalls", "wire", "dispatch_stalls")
	total("broker.snapshot_swaps", "broker", "snapshot_swaps")
	total("broker.retries", "broker", "retries")
	total("broker.lost", "broker", "lost")
	perEvent("durable.fsyncs_per_event", "durable", "journal_fsyncs")
	perEvent("durable.journal_bytes_per_event", "durable", "journal_append_bytes")
	if wl.shape == shapeReplicated {
		m.set("replicate.follower_cpu_us_per_event", ph.cpuUsPerEvent(1))
		m.set("replicate.mirror_lag_bytes", float64(ph.mirrorLag))
	} else {
		m.absent("replicate.follower_cpu_us_per_event", "replicate.mirror_lag_bytes")
	}
}

// printBudget prints the self-time table: where the traced run's median
// delivery latency goes, layer by layer.
func printBudget(w io.Writer, b budget, spansPath string) {
	fmt.Fprintf(w, "latency budget of the traced run (%d events timed, %d in the p40–p60 band; spans in %s):\n", b.events, b.band, spansPath)
	fmt.Fprintf(w, "  %-24s %12s %8s %12s\n", "span (self time)", "band mean us", "share", "all p50 us")
	for _, r := range b.rows {
		name := r.name
		if name == spanEvent {
			name = "(unattributed)"
		}
		fmt.Fprintf(w, "  %-24s %12.1f %7.1f%% %12.1f\n", name, r.meanUs, 100*r.meanUs/b.bandMeanUs, r.p50Us)
	}
	fmt.Fprintf(w, "  %-24s %12.1f %7.1f%%   (band mean latency %.1f us, traced p50 %.1f us)\n", "sum", b.sumUs(), 100*b.sumUs()/b.p50Us, b.bandMeanUs, b.p50Us)
}
