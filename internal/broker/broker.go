// Package broker turns the Engine's per-event delivery *decisions* into
// actual message deliveries over an in-process fabric: publications flow
// through a sharded decision plane, and a fan-out worker pool delivers one
// copy of each event to every destination node (group members, remainder
// top-ups, or unicast targets), accepting each copy inline — dedup, ack,
// accounting and observer run on the fan-out worker, so no node has its
// own queue or goroutine.
//
// The broker exists to validate delivery *semantics* end to end — the cost
// model in internal/sim prices paths, this package checks who actually
// receives what:
//
//   - completeness: every live subscriber interested in an event receives
//     it, exactly once;
//   - single delivery: no node receives the same event twice (a durable
//     broker's receiver-side dedup windows turn a recovery's redelivery
//     into exactly-once accounting);
//   - waste: deliveries to uninterested group members are counted, and a
//     No-Loss engine produces exactly zero of them.
//
// # Snapshot decision plane
//
// Decisions are served RCU-style. The engine builds an immutable
// core.DecisionSnapshot (cloned subscription index, group tables); the
// broker publishes it through an atomic pointer and N decision workers
// (default GOMAXPROCS) take lock-free loads, so Decide throughput scales
// with cores while decisions stay byte-identical per snapshot. All engine
// *mutations* — subscription churn via Broker.Subscribe/Unsubscribe — run
// on a single writer goroutine that mutates the private engine and swaps
// the snapshot atomically. Each publication captures the snapshot current
// at Publish and drains against it; a new subscriber is covered from the
// moment Subscribe returns (the swap happens before the reply), topped up
// by unicast until a group rebuild folds it in — the paper's never-lose
// invariant.
//
// Pipeline shape (all stdlib, structured shutdown):
//
//	Publish() → seq assignment → publishCh → N decision workers (snapshot reads)
//	          → fanoutCh → M fan-out workers → accept per copy → Stats
//	Subscribe()/Unsubscribe() → writer goroutine
//	          → engine mutation → snapshot swap
//
// The failures the broker meets are those of the process around it. A
// durable broker (Open) journals every publication and the copies each
// node accepted; after a crash the next incarnation redelivers the journal
// tail under the original sequence numbers, and its per-node dedup windows
// suppress the copies that had already arrived. With a health.Health
// attached (WithHealth), Publish passes through admission control — a
// token-bucket rate limiter plus a MaxInflight semaphore over the whole
// pipeline — and under the RejectNewest/ShedLowFanout policies returns
// health.ErrOverloaded instead of queueing unbounded work; each admitted
// event carries a strict one-shot release token.
package broker

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/multicast"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ErrClosed is returned by Publish, Subscribe and Unsubscribe after Close.
var ErrClosed = errors.New("broker: publish after close")

// Delivery is one message copy arriving at a node.
type Delivery struct {
	Event workload.Event
	// Seq is the publication sequence number assigned at Publish;
	// receivers dedup on it.
	Seq    int64
	Method multicast.Method
	Group  int // -1 for unicast deliveries
	// Interested reports whether the receiving node had a matching
	// subscription (false ⇒ wasted delivery).
	Interested bool

	// born is the decision-stage timestamp; accept turns it into the
	// end-to-end delivery-latency histogram.
	born time.Time
	// trace is the event's sampled lifecycle trace, nil when untraced.
	trace *telemetry.EventTrace
	// held is the fan-out worker's list of flushers to run once the
	// event's fan-out returns; nil outside a fan-out.
	held *[]Flusher
}

// Flusher is what an observer holds back until the fan-out that handed it
// a copy has handed out every copy of the event: its Flush runs then, on
// the fan-out worker. A transport uses it to send one event's copies for
// one connection as one write.
type Flusher interface{ Flush() }

// Hold registers f to be flushed when d's fan-out returns and reports
// true, or reports false when d belongs to no open fan-out — a Delivery
// built outside the broker's fan-out workers, which the caller should
// flush at once. It may be called only inside the observer call that
// received d.
func (d Delivery) Hold(f Flusher) bool {
	if d.held == nil {
		return false
	}
	*d.held = append(*d.held, f)
	return true
}

// Release flushes, ahead of the fan-out's end, every flusher d's fan-out
// holds so far. An observer calls it before it blocks, so that copies
// already handed out do not wait on the block. It is a no-op outside a
// fan-out, and may be called only inside the observer call that received
// d.
func (d Delivery) Release() { flushHeld(d.held) }

// flushHeld runs and forgets every flusher in held, which may be nil.
func flushHeld(held *[]Flusher) {
	if held == nil {
		return
	}
	for i, f := range *held {
		f.Flush()
		(*held)[i] = nil
	}
	*held = (*held)[:0]
}

// queued is one admitted publication in flight to the decision plane.
type queued struct {
	seq int64
	ev  workload.Event
	// snap is the decision snapshot current at Publish time. Deciding
	// against it (rather than re-loading at decide time) pins the
	// never-lose contract to the Publish call: an event accepted while a
	// subscription was live is matched against a snapshot containing it,
	// even if the subscriber leaves before the queue drains.
	snap *core.DecisionSnapshot
	// tok is the event's admission token (nil without WithHealth);
	// released exactly once when the event leaves the pipeline.
	tok *health.Token
	// replay marks a recovery redelivery: the publication was already
	// journaled and counted by a previous incarnation, so the decision
	// stage skips the published/method counters for it.
	replay bool
}

// decideScratch is a decision worker's reusable per-event buffer set: the
// core decide scratch (R*-tree hits, interested nodes, remainder) plus the
// broadcast-target slice. Pooled so the decide plane allocates nothing per
// event in steady state: decideOne acquires one, the Decision it carries
// aliases its buffers, and the fan-out worker that finishes the event
// returns it to the pool. Never pooled when a decision observer is
// attached — the observer reads the Decision after the fan-out hand-off,
// which would race the next event's reuse.
type decideScratch struct {
	dec   core.DecideScratch
	nodes []topology.NodeID
}

var decideScratchPool = sync.Pool{New: func() any { return new(decideScratch) }}

// interestedIn reports whether n had a matching subscription, by binary
// search over the decision's sorted interested list — replacing a per-event
// map build on the decide hot path.
func interestedIn(d *core.Decision, n topology.NodeID) bool {
	lo, hi := 0, len(d.Interested)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.Interested[mid] < n {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(d.Interested) && d.Interested[lo] == n
}

// routed couples a decided event with its destinations.
type routed struct {
	seq int64
	ev  workload.Event
	d   core.Decision
	// scratch is the pooled buffer set backing d's slices (and nodes, for
	// broadcasts); the fan-out worker that retires the event returns it.
	// Nil when the decision was allocated fresh (observer attached).
	scratch *decideScratch
	// t0 stamps the decision; delivery latency is measured from here.
	t0 time.Time
	// trace is the event's sampled lifecycle trace, nil when untraced.
	trace *telemetry.EventTrace
	// tok is the admission token carried from Publish.
	tok *health.Token
	// nodes are the delivery targets beyond Remainder/Interested: the
	// routed group's members (NetworkMulticast) or every subscriber node
	// (Broadcast), captured at decision time from the snapshot so fan-out
	// never reads mutable state. Read-only.
	nodes []topology.NodeID
	// acks collects the event's accepted copies for its one ack record
	// and barrier (durable brokers only); owned by the fan-out worker.
	acks *ackBatch
	// held lists the flushers the event's observer calls held
	// (Delivery.Hold); owned by the fan-out worker.
	held *[]Flusher
}

// Stats aggregates delivery accounting. Snapshot via Broker.Stats; the
// snapshot is safe to take while the broker is running.
type Stats struct {
	Published  int64
	Multicast  int64 // events delivered via a group
	Unicast    int64 // events delivered by unicast only
	Broadcast  int64 // events flooded (DynamicMethod engines only)
	Deliveries int64 // message copies accepted at nodes (post-dedup)
	Wasted     int64 // copies delivered to uninterested nodes

	// Churn / snapshot counters.
	Subscribes    int64 // live subscriptions added via Broker.Subscribe
	Unsubscribes  int64 // live subscriptions removed via Broker.Unsubscribe
	SnapshotSwaps int64 // decision-snapshot publications since start

	// Deduped counts duplicate copies suppressed at receivers: a durable
	// broker's recovery redelivering copies that had already arrived.
	Deduped int64

	// Overload counters — all zero without WithHealth.
	Shed            int64 // decided events dropped by ShedLowFanout
	Rejected        int64 // publishes refused with health.ErrOverloaded
	RateLimited     int64 // rejections specifically from the token bucket
	ReleaseSpurious int64 // double-releases caught by strict admission tokens

	PerNode map[topology.NodeID]int64
}

// metrics caches the broker's telemetry handles so the delivery hot path
// never touches a registry map: every counter bump is one lock-free atomic
// add on a pre-resolved instrument. Stats() is a thin view over these, so
// the registry is the single source of truth for broker accounting.
type metrics struct {
	published  *telemetry.Counter
	multicast  *telemetry.Counter
	unicast    *telemetry.Counter
	broadcast  *telemetry.Counter
	deliveries *telemetry.Counter
	wasted     *telemetry.Counter

	subscribes   *telemetry.Counter
	unsubscribes *telemetry.Counter
	swaps        *telemetry.Counter
	snapVersion  *telemetry.Gauge
	// snapAge is the replaced snapshot's service lifetime at each swap, ns.
	snapAge *telemetry.Histogram

	deduped *telemetry.Counter

	// deliverLatency is decision→accept wall time per copy, ns.
	deliverLatency *telemetry.Histogram
}

func newMetrics(s *telemetry.Scope) metrics {
	return metrics{
		published:      s.Counter("published"),
		multicast:      s.Counter("multicast_events"),
		unicast:        s.Counter("unicast_events"),
		broadcast:      s.Counter("broadcast_events"),
		deliveries:     s.Counter("deliveries"),
		wasted:         s.Counter("wasted"),
		subscribes:     s.Counter("subscribes"),
		unsubscribes:   s.Counter("unsubscribes"),
		swaps:          s.Counter("snapshot_swaps"),
		snapVersion:    s.Gauge("snapshot_version"),
		snapAge:        s.Histogram("snapshot_age_ns", telemetry.LatencyBuckets()),
		deduped:        s.Counter("deduped"),
		deliverLatency: s.Histogram("deliver_latency_ns", telemetry.LatencyBuckets()),
	}
}

// nodeState is one subscriber node's receiving end: its delivered counter
// and, when the broker is durable, its dedup window.
type nodeState struct {
	delivered atomic.Int64
	win       *lockedWindow
}

// routeTable is the immutable node directory published through an atomic
// pointer. The writer goroutine replaces it wholesale when a Subscribe
// introduces a node that had no state at start — the directory grows
// dynamically instead of being frozen at New (which would nil-deref for
// post-start subscribers).
type routeTable struct {
	nodes map[topology.NodeID]*nodeState
}

// churnReq is one Subscribe/Unsubscribe request bound for the writer.
type churnReq struct {
	sub   *workload.Subscription // non-nil ⇒ subscribe, else unsubscribe
	slot  int                    // unsubscribe target
	reply chan churnResp
}

type churnResp struct {
	slot int
	err  error
}

// Broker is the delivery fabric. Create with New, feed with Publish, stop
// with Close. Safe for concurrent Publish, Subscribe and Unsubscribe.
type Broker struct {
	engine        *core.Engine
	workers       int // fan-out workers
	decideWorkers int // decision workers; 0 = GOMAXPROCS

	health *health.Health

	// snap is the published decision snapshot: decision workers take
	// lock-free loads, only the writer goroutine stores.
	snap atomic.Pointer[core.DecisionSnapshot]
	// seq numbers publications at ingress, so sequence order matches
	// publish order even across concurrent decision workers.
	seq atomic.Int64
	// routes is the current node directory (see routeTable).
	routes atomic.Pointer[routeTable]

	publishCh chan queued
	fanoutCh  chan routed
	// writerCh carries churn requests to the writer goroutine.
	writerCh   chan churnReq
	writerStop chan struct{}
	// ckptCh carries explicit Checkpoint requests to the writer goroutine.
	ckptCh chan chan error

	// dur is the durability bookkeeping (nil unless created by Open);
	// durOpts is the store tuning captured from WithDurableOptions.
	dur     *durState
	durOpts *durable.Options

	// observer, when set, sees every accepted delivery after stats
	// accounting.
	observer func(topology.NodeID, Delivery)
	// decisionObs, when set, sees every decided event (with its priced
	// costs) on a decision worker, before fan-out. Shed events are not
	// reported — they never reach fan-out. With more than one decision
	// worker callbacks run concurrently and may arrive out of sequence
	// order; pin WithDecideWorkers(1) for a serial, ordered stream.
	decisionObs func(seq int64, ev workload.Event, d core.Decision, c core.Costs)

	// reg owns the broker's metrics; private unless WithTelemetry supplies
	// a shared registry. tracer is nil unless WithTracer enables tracing.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	ctr    metrics
	// decideNs holds one decide-latency histogram per decision worker
	// ("decide_w<i>_ns"), so per-worker skew is visible.
	decideNs []*telemetry.Histogram
	// lastSwap is the previous snapshot publication time (writer-only).
	lastSwap time.Time

	closeMu sync.RWMutex
	closed  bool

	decisionWG sync.WaitGroup
	fanoutWG   sync.WaitGroup
	writerWG   sync.WaitGroup
	closeOnce  sync.Once
}

// Option customises a Broker.
type Option func(*Broker)

// WithWorkers sets the fan-out worker count (default 4).
func WithWorkers(n int) Option {
	return func(b *Broker) { b.workers = n }
}

// WithDecideWorkers sets the decision worker count: 0 (the default) means
// GOMAXPROCS, 1 forces a serial decision stage. Decisions are
// byte-identical per snapshot for every worker count; only throughput and
// the interleaving of fan-out change.
func WithDecideWorkers(n int) Option {
	return func(b *Broker) { b.decideWorkers = n }
}

// WithObserver registers a callback invoked for every accepted delivery
// (after accounting and dedup). The callback runs on the fan-out workers,
// possibly for one node from two workers at once, and must be safe for
// concurrent use; per-node order across events is not guaranteed.
func WithObserver(fn func(topology.NodeID, Delivery)) Option {
	return func(b *Broker) { b.observer = fn }
}

// WithTelemetry publishes the broker's metrics into a shared registry
// (scope "broker") instead of a private one, so exporters and the HTTP
// server see them. Stats() reads the same instruments either way.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(b *Broker) { b.reg = reg }
}

// WithTracer enables per-event lifecycle tracing: each sampled publication
// accumulates decide/enqueue/attempt/deliver spans into the tracer's ring.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(b *Broker) { b.tracer = tr }
}

// WithHealth attaches admission control to Publish: h's Admission bounds
// the events in flight and applies its overload policy. The broker
// instruments h into its telemetry registry.
func WithHealth(h *health.Health) Option {
	return func(b *Broker) { b.health = h }
}

// WithDecisionObserver registers a callback invoked on the decision
// workers for every decided event with its priced delivery costs —
// the hook recovery experiments use to build cost-over-time series.
// Pricing each decision costs extra model lookups, so attach it only when
// the series is wanted. Combine with WithDecideWorkers(1) when the
// consumer needs the callbacks serial and in sequence order.
func WithDecisionObserver(fn func(seq int64, ev workload.Event, d core.Decision, c core.Costs)) Option {
	return func(b *Broker) { b.decisionObs = fn }
}

// New starts a broker over an engine. The engine must not be used by the
// caller until Close returns (the writer goroutine owns it).
func New(engine *core.Engine, opts ...Option) (*Broker, error) {
	if engine == nil {
		return nil, fmt.Errorf("broker: nil engine")
	}
	b := &Broker{
		engine:  engine,
		workers: 4,
	}
	for _, opt := range opts {
		opt(b)
	}
	if b.workers < 1 {
		return nil, fmt.Errorf("broker: %d workers", b.workers)
	}
	if b.decideWorkers < 0 {
		return nil, fmt.Errorf("broker: %d decide workers", b.decideWorkers)
	}
	if b.decideWorkers == 0 {
		b.decideWorkers = runtime.GOMAXPROCS(0)
	}
	if b.reg == nil {
		b.reg = telemetry.NewRegistry()
	}
	scope := b.reg.Scope("broker")
	b.ctr = newMetrics(scope)
	b.decideNs = make([]*telemetry.Histogram, b.decideWorkers)
	for i := range b.decideNs {
		b.decideNs[i] = scope.Histogram(fmt.Sprintf("decide_w%d_ns", i), telemetry.LatencyBuckets())
	}
	// Size the publish queue at least MaxInflight so that under the
	// rejecting policies an admitted event never blocks on the channel
	// send: admission is the bound, not the channel.
	queue := 64
	if b.health != nil && b.health.Admission.Capacity() > queue {
		queue = b.health.Admission.Capacity()
	}
	b.publishCh = make(chan queued, queue)
	b.fanoutCh = make(chan routed, 64)
	b.writerCh = make(chan churnReq, 16)
	b.writerStop = make(chan struct{})
	b.ckptCh = make(chan chan error)
	if b.health != nil {
		b.health.Instrument(b.reg)
	}
	if b.dur != nil {
		b.initDurable()
	}

	// Initial snapshot and route table. Fan-out workers only ever see
	// fully populated, immutable tables.
	snap := engine.Snapshot()
	b.snap.Store(snap)
	b.ctr.snapVersion.Set(snap.Version())
	b.lastSwap = time.Now()
	owners := engine.World().SubscriberNodes
	if b.dur != nil {
		// Recovered churned subscriptions were applied to the engine before
		// New, bypassing ensureRoutes — give their owners state now.
		owners = append([]topology.NodeID(nil), owners...)
		for _, rec := range b.dur.subs {
			owners = append(owners, rec.Owner)
		}
	}
	b.routes.Store(&routeTable{nodes: map[topology.NodeID]*nodeState{}})
	b.ensureRoutes(owners)

	for i := 0; i < b.decideWorkers; i++ {
		b.decisionWG.Add(1)
		go b.decideLoop(i, engine.NewSPTView())
	}

	for i := 0; i < b.workers; i++ {
		b.fanoutWG.Add(1)
		go b.fanout()
	}

	b.writerWG.Add(1)
	go b.writer()
	return b, nil
}

// Publish enqueues one event for delivery. It blocks when the pipeline is
// saturated and returns ErrClosed (instead of panicking) if the broker has
// been closed. With health attached, the event first passes admission
// control: under the RejectNewest and ShedLowFanout policies a saturated
// pipeline or an empty rate-limit bucket returns health.ErrOverloaded
// instead of blocking; a Block-policy wait interrupted by Close returns
// ErrClosed. Safe to race with Close.
func (b *Broker) Publish(ev workload.Event) error {
	_, err := b.PublishSeq(ev)
	return err
}

// PublishSeq is Publish reporting the publication sequence number the
// event consumed: deliveries of this event carry it as Delivery.Seq. The
// returned seq is -1 exactly when the event never entered the broker's
// history (closed broker, admission rejection). A non-negative seq with a
// non-nil error means the seq was consumed — and, for durable brokers,
// possibly journaled — before the failure, so a recovery replay may still
// deliver under it; federation routers record the seq even on error so
// cross-shard dedup recognises those replays.
func (b *Broker) PublishSeq(ev workload.Event) (int64, error) {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return -1, ErrClosed
	}
	var tok *health.Token
	if b.health != nil {
		// Admit while holding the close lock: Close cannot complete until
		// this Publish returns, so an admitted event always reaches the
		// pipeline and its inflight slot is always released by fan-out.
		// Close unblocks a waiting Admit (it closes admission first, before
		// taking the write lock), so this cannot deadlock shutdown.
		var err error
		tok, err = b.health.Admission.Admit()
		if err != nil {
			if errors.Is(err, health.ErrClosed) {
				return -1, ErrClosed
			}
			return -1, err
		}
	}
	seq := b.seq.Add(1) - 1
	if b.dur != nil {
		// Journal before acknowledging: a Publish that returns nil has its
		// record group-committed, so any crash after this point redelivers
		// it. The inflight entry goes in first so a concurrent checkpoint
		// rotation cannot miss the record.
		b.dur.inflight.Store(seq, ev)
		if err := b.dur.store.AppendPublish(seq, ev); err != nil {
			b.dur.inflight.Delete(seq)
			tok.Release()
			return seq, err
		}
	}
	b.publishCh <- queued{seq: seq, ev: ev, snap: b.snap.Load(), tok: tok}
	return seq, nil
}

// Subscribe registers a new subscription with the running broker and
// returns its slot id. When Subscribe returns, the subscription is part of
// the published decision snapshot: every event published afterwards that
// matches it will be delivered (by unicast top-up until the next group
// rebuild folds the subscriber into a group — never lost). A subscriber
// node the broker had no state for gets it, with its delivery counter
// grown dynamically.
func (b *Broker) Subscribe(s workload.Subscription) (int, error) {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return 0, ErrClosed
	}
	reply := make(chan churnResp, 1)
	b.writerCh <- churnReq{sub: &s, reply: reply}
	resp := <-reply
	return resp.slot, resp.err
}

// Unsubscribe removes a live subscription by slot id. When Unsubscribe
// returns, the published snapshot no longer matches the subscription:
// events published afterwards are not delivered to it. Events decided
// published earlier may still arrive (each drains against the snapshot
// captured at its Publish).
func (b *Broker) Unsubscribe(slot int) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	reply := make(chan churnResp, 1)
	b.writerCh <- churnReq{slot: slot, reply: reply}
	resp := <-reply
	return resp.err
}

// Close drains the pipeline and stops all goroutines. Safe to call more
// than once and concurrently with Publish; Publish calls that lose the
// race return ErrClosed. The returned error reports a failed final
// checkpoint or journal close — a durable broker that cannot persist its
// shutdown state must not exit 0 (only the first Close observes it;
// repeat calls return nil).
func (b *Broker) Close() error {
	var closeErr error
	b.closeOnce.Do(func() {
		if b.health != nil {
			// Unblock Publish calls waiting inside Admit before taking the
			// write lock they hold read-side.
			b.health.Admission.Close()
		}
		b.closeMu.Lock()
		b.closed = true
		b.closeMu.Unlock()
		close(b.publishCh)
		b.decisionWG.Wait()
		close(b.fanoutCh)
		b.fanoutWG.Wait()
		// Churn calls hold closeMu's read side, so none is in flight now:
		// the writer has nothing left to serve and hands the engine back.
		close(b.writerStop)
		b.writerWG.Wait()
		if b.dur != nil {
			// Everything is quiescent: a clean-shutdown checkpoint leaves
			// nothing in the journal tail, so the next Open replays zero
			// records. Skipped when a crash point fired — the test harness
			// wants the disk exactly as the dying process left it.
			if !b.dur.store.Crashed() {
				if err := b.doCheckpoint(); err != nil && !errors.Is(err, faults.ErrCrashed) {
					closeErr = fmt.Errorf("final checkpoint: %w", err)
				}
			}
			if err := b.dur.store.Close(); err != nil && closeErr == nil {
				closeErr = fmt.Errorf("journal close: %w", err)
			}
		}
	})
	return closeErr
}

// Stats returns a snapshot of the accounting so far (call after Close for
// final numbers). It is a thin view over the telemetry registry: each field
// is an atomic load of the corresponding "broker"-scope counter, so
// successive snapshots are monotone per counter even mid-run.
//
// Across a durable restart (Open over a used directory) the cumulative
// work counters are preserved at checkpoint granularity — Published,
// Multicast, Unicast, Broadcast, Deliveries, Wasted, Subscribes,
// Unsubscribes — seeded from the last checkpoint before any new traffic
// is accepted. Recovery redeliveries do not re-increment them. Everything
// else is explicitly per-incarnation and restarts at zero: SnapshotSwaps,
// Deduped, the overload counters, and PerNode.
func (b *Broker) Stats() Stats {
	rt := b.routes.Load()
	out := Stats{
		Published:     b.ctr.published.Value(),
		Multicast:     b.ctr.multicast.Value(),
		Unicast:       b.ctr.unicast.Value(),
		Broadcast:     b.ctr.broadcast.Value(),
		Deliveries:    b.ctr.deliveries.Value(),
		Wasted:        b.ctr.wasted.Value(),
		Subscribes:    b.ctr.subscribes.Value(),
		Unsubscribes:  b.ctr.unsubscribes.Value(),
		SnapshotSwaps: b.ctr.swaps.Value(),
		Deduped:       b.ctr.deduped.Value(),
		PerNode:       make(map[topology.NodeID]int64, len(rt.nodes)),
	}
	if b.health != nil {
		hc := b.health.CounterSnapshot()
		out.Shed = hc.Shed
		out.Rejected = hc.Rejected
		out.RateLimited = hc.RateLimited
		out.ReleaseSpurious = hc.ReleaseSpurious
	}
	for n, ns := range rt.nodes {
		out.PerNode[n] = ns.delivered.Load()
	}
	return out
}

// SnapshotVersion returns the published decision snapshot's build number.
func (b *Broker) SnapshotVersion() int64 { return b.snap.Load().Version() }

// DecideWorkers returns the resolved decision-worker count (never 0: the
// WithDecideWorkers(0) default resolves to GOMAXPROCS at New).
func (b *Broker) DecideWorkers() int { return b.decideWorkers }

// Telemetry exposes the broker's metrics registry — the shared one passed
// via WithTelemetry, or the private default.
func (b *Broker) Telemetry() *telemetry.Registry { return b.reg }

// decideLoop is one decision worker: it drains admitted publications and
// decides each against a lock-free load of the published snapshot, using
// its private SPT view for cost queries.
func (b *Broker) decideLoop(w int, view *multicast.Model) {
	defer b.decisionWG.Done()
	for q := range b.publishCh {
		b.decideOne(q, w, view)
	}
}

// decideOne routes one publication through the decision stage, against the
// snapshot captured when the event was published.
func (b *Broker) decideOne(q queued, w int, view *multicast.Model) {
	snap := q.snap
	trace := b.tracer.Begin(q.seq)
	t0 := time.Now()
	var sc *decideScratch
	var d core.Decision
	if b.decisionObs == nil {
		sc = decideScratchPool.Get().(*decideScratch)
		d = snap.DecideInto(q.ev, view, &sc.dec)
	} else {
		// The observer reads the Decision after the fan-out hand-off;
		// pooled buffers would be reused under it, so keep fresh slices.
		d = snap.Decide(q.ev, view)
	}
	dt := time.Since(t0)
	b.decideNs[w].ObserveDuration(dt)
	trace.Add("decide", t0, dt, -1, d.Group, methodNote(d.Method))
	if !q.replay {
		// Recovery redeliveries were counted by the incarnation that
		// journaled them (preserved via checkpoint); counting them again
		// would double-book the restart.
		b.ctr.published.Add(1)
		switch d.Method {
		case multicast.NetworkMulticast:
			b.ctr.multicast.Add(1)
		case multicast.Broadcast:
			b.ctr.broadcast.Add(1)
		default:
			b.ctr.unicast.Add(1)
		}
	}
	r := routed{seq: q.seq, ev: q.ev, d: d, scratch: sc, t0: t0, trace: trace, tok: q.tok}
	switch d.Method {
	case multicast.NetworkMulticast:
		// The snapshot's group tables are immutable; share the member
		// slice instead of copying — fan-out only reads it.
		r.nodes = snap.GroupNodes(d.Group)
	case multicast.Broadcast:
		// Freeze the flood targets now so fan-out and routing paths agree
		// even if a Subscribe grows the route table in between.
		rt := b.routes.Load()
		var nodes []topology.NodeID
		if sc != nil {
			nodes = sc.nodes[:0]
		} else {
			nodes = make([]topology.NodeID, 0, len(rt.nodes))
		}
		for n := range rt.nodes {
			nodes = append(nodes, n)
		}
		if sc != nil {
			sc.nodes = nodes
		}
		r.nodes = nodes
	}
	if b.health != nil {
		b.health.Admission.NoteFanout(len(d.Interested))
	}
	enq := time.Now()
	if b.health != nil {
		// Try a non-blocking hand-off first: if the fan-out stage is
		// congested and the policy sheds, drop the event here when its
		// fanout is below the running mean — the cheapest loss available.
		select {
		case b.fanoutCh <- r:
		default:
			if b.health.Admission.ShouldShed(len(d.Interested)) {
				b.health.Admission.NoteShed()
				q.tok.Release()
				if b.dur != nil {
					// A shed event never reaches fan-out; retire its
					// checkpoint carry-forward entry here.
					b.dur.inflight.Delete(q.seq)
				}
				trace.Add("shed", enq, time.Since(enq), -1, d.Group, "low-fanout")
				if sc != nil {
					decideScratchPool.Put(sc)
				}
				return
			}
			b.fanoutCh <- r
		}
	} else {
		b.fanoutCh <- r
	}
	trace.Add("enqueue", enq, time.Since(enq), -1, d.Group, "")
	if b.decisionObs != nil {
		b.decisionObs(r.seq, q.ev, d, snap.CostOf(q.ev, d, view))
	}
}

// writer is the single goroutine that owns the engine after New: every
// mutation — subscription churn — lands here,
// and every visible change is published as a fresh immutable snapshot that
// the decision workers pick up on their next load.
func (b *Broker) writer() {
	defer b.writerWG.Done()
	// Durable brokers checkpoint from here too: the timed cadence
	// truncates the journal whenever it holds anything, and heavy churn
	// triggers the record-count threshold between ticks.
	var ckptTick <-chan time.Time
	if b.dur != nil {
		if iv := b.dur.store.Options().CheckpointInterval; iv > 0 {
			t := time.NewTicker(iv)
			defer t.Stop()
			ckptTick = t.C
		}
	}
	for {
		select {
		case req := <-b.writerCh:
			b.handleChurn(req)
			if b.checkpointDue(false) {
				b.doCheckpoint()
			}
		case <-ckptTick:
			if b.checkpointDue(true) {
				b.doCheckpoint()
			}
		case reply := <-b.ckptCh:
			reply <- b.doCheckpoint()
		case <-b.writerStop:
			return
		}
	}
}

// handleChurn applies one churn request — plus any others already queued,
// coalesced into a single snapshot swap — and replies after the swap, so
// the caller's Subscribe/Unsubscribe return happens-after the snapshot
// covering its change is live.
func (b *Broker) handleChurn(first churnReq) {
	reqs := []churnReq{first}
	for len(reqs) < 32 {
		select {
		case r := <-b.writerCh:
			reqs = append(reqs, r)
		default:
			goto apply
		}
	}
apply:
	resps := make([]churnResp, len(reqs))
	var newOwners []topology.NodeID
	for i, r := range reqs {
		if r.sub != nil {
			slot, err := b.engine.AddSubscription(*r.sub)
			resps[i] = churnResp{slot: slot, err: err}
			if err == nil {
				b.ctr.subscribes.Inc()
				newOwners = append(newOwners, r.sub.Owner)
			}
		} else {
			err := b.engine.RemoveSubscription(r.slot)
			resps[i] = churnResp{err: err}
			if err == nil {
				b.ctr.unsubscribes.Inc()
			}
		}
	}
	if b.dur != nil {
		// Journal + group-commit the batch before the swap: replay order
		// equals swap order, and no snapshot ever covers a subscription the
		// journal could lose.
		b.journalChurn(reqs, resps)
	}
	// Routes first, snapshot second: once a decision can match the new
	// subscriber, its node state must already exist.
	b.ensureRoutes(newOwners)
	b.publishSnapshot()
	for i, r := range reqs {
		r.reply <- resps[i]
	}
}

// ensureRoutes grows the route table (copy-on-write) with node state for
// owners not yet present.
func (b *Broker) ensureRoutes(owners []topology.NodeID) {
	rt := b.routes.Load()
	var missing []topology.NodeID
	for _, n := range owners {
		if _, ok := rt.nodes[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) == 0 {
		return
	}
	nrt := &routeTable{nodes: make(map[topology.NodeID]*nodeState, len(rt.nodes)+len(missing))}
	for n, ns := range rt.nodes {
		nrt.nodes[n] = ns
	}
	for _, n := range missing {
		if _, ok := nrt.nodes[n]; ok {
			continue // duplicate owner within one batch
		}
		nrt.nodes[n] = &nodeState{win: b.nodeWindow(n)}
	}
	b.routes.Store(nrt)
}

// publishSnapshot swaps in a fresh decision snapshot if the engine's state
// changed, recording the swap and the retired snapshot's service lifetime.
func (b *Broker) publishSnapshot() {
	s := b.engine.Snapshot()
	if s == b.snap.Load() {
		return
	}
	b.snap.Store(s)
	now := time.Now()
	b.ctr.snapAge.ObserveDuration(now.Sub(b.lastSwap))
	b.lastSwap = now
	b.ctr.swaps.Inc()
	b.ctr.snapVersion.Set(s.Version())
}

// methodNote renders a decision method for trace spans.
func methodNote(m multicast.Method) string {
	switch m {
	case multicast.NetworkMulticast:
		return "multicast"
	case multicast.Broadcast:
		return "broadcast"
	default:
		return "unicast"
	}
}

// ackBatch holds a durable event's accepted copies until flushAcks admits
// them, journals them as one ack record and waits out one ack barrier, so
// a fan-out worker appends and waits once per event rather than once per
// copy. Each fan-out worker owns one and reuses it.
type ackBatch struct {
	// d holds the Delivery fields every copy of the event shares; each
	// copy keeps only the fields that differ, so a worker's retained
	// copies slice stays small.
	d      Delivery
	copies []ackedCopy
	nodes  []topology.NodeID // the fresh copies' nodes: the record's body
}

// ackedCopy is one accepted copy waiting for its event's ack record.
type ackedCopy struct {
	n          topology.NodeID
	ns         *nodeState
	method     multicast.Method
	group      int
	interested bool
}

// delivery rebuilds copy c's Delivery.
func (a *ackBatch) delivery(c ackedCopy) Delivery {
	d := a.d
	d.Method, d.Group, d.Interested = c.method, c.group, c.interested
	return d
}

// fanout delivers one copy per destination node and accepts each inline.
// Once every copy is observed it flushes what the observer held, then
// releases the event's admission token — the point where the inflight
// bound stops counting it.
func (b *Broker) fanout() {
	defer b.fanoutWG.Done()
	var (
		acks ackBatch
		held []Flusher
	)
	for r := range b.fanoutCh {
		r.acks = &acks
		r.held = &held
		b.fanoutOne(r)
		if b.dur != nil {
			b.flushAcks(r.seq, &acks)
			b.dur.inflight.Delete(r.seq)
		}
		flushHeld(&held)
		r.tok.Release()
		if r.scratch != nil {
			// Every copy is accepted (Delivery holds values, not the
			// decision's slices), so the event no longer references the
			// scratch-backed buffers.
			decideScratchPool.Put(r.scratch)
		}
	}
}

// fanoutOne delivers one routed event to all its destinations.
func (b *Broker) fanoutOne(r routed) {
	rt := b.routes.Load()
	if r.d.Method == multicast.Broadcast {
		// Flooding: every subscriber node captured at decision time
		// receives a copy (non-subscriber nodes have no state and are
		// represented by waste accounting at the cost level, not the
		// delivery level).
		for _, n := range r.nodes {
			b.deliver(rt, r, n, Delivery{
				Event:      r.ev,
				Seq:        r.seq,
				Method:     multicast.Broadcast,
				Group:      -1,
				Interested: interestedIn(&r.d, n),
			})
		}
		return
	}
	if r.d.Method == multicast.NetworkMulticast {
		for _, n := range r.nodes {
			b.deliver(rt, r, n, Delivery{
				Event:      r.ev,
				Seq:        r.seq,
				Method:     multicast.NetworkMulticast,
				Group:      r.d.Group,
				Interested: interestedIn(&r.d, n),
			})
		}
		for _, n := range r.d.Remainder {
			b.deliver(rt, r, n, Delivery{
				Event:      r.ev,
				Seq:        r.seq,
				Method:     multicast.Unicast,
				Group:      -1,
				Interested: true,
			})
		}
		return
	}
	for _, n := range r.d.Interested {
		b.deliver(rt, r, n, Delivery{
			Event:      r.ev,
			Seq:        r.seq,
			Method:     multicast.Unicast,
			Group:      -1,
			Interested: true,
		})
	}
}

// deliver hands a copy to node n; unknown nodes (non-subscribers) are
// counted but have no state.
func (b *Broker) deliver(rt *routeTable, r routed, n topology.NodeID, d Delivery) {
	d.born = r.t0
	d.trace = r.trace
	d.held = r.held
	ns, ok := rt.nodes[n]
	if !ok {
		// A group may reference a node that stopped subscribing between
		// refreshes; count the waste, nothing to deliver to.
		b.ctr.deliveries.Add(1)
		if !d.Interested {
			b.ctr.wasted.Add(1)
		}
		return
	}
	b.accept(r, n, ns, d)
}

// accept is node n's receiving end for one copy. A durable copy waits in
// r.acks for its event's ack record (flushAcks); any other copy is
// deduplicated on its sequence number when the node keeps a window, then
// accounted and observed at once.
func (b *Broker) accept(r routed, n topology.NodeID, ns *nodeState, d Delivery) {
	if b.dur != nil {
		r.acks.d = d
		r.acks.copies = append(r.acks.copies, ackedCopy{n: n, ns: ns, method: d.Method, group: d.Group, interested: d.Interested})
		return
	}
	if ns.win != nil && !ns.win.admit(d.Seq) {
		b.dedup(n, d)
		return
	}
	b.observe(n, ns, d)
}

// dedup counts and traces a copy its node's window already admitted.
func (b *Broker) dedup(n topology.NodeID, d Delivery) {
	b.ctr.deduped.Add(1)
	d.trace.Add("dedup", time.Now(), 0, int64(n), d.Group, "")
}

// flushAcks settles a durable event's accepted copies. Under the read side
// of ackGate it admits each copy into its node's window (a duplicate is
// deduplicated here) and journals the fresh ones as one ack record; then
// one ack barrier covers the record and the fresh copies are observed.
// Admitting before appending is safe against checkpoints because a
// capture takes ackGate's write side, so it sees an event's admissions
// only once their record is appended. A failed append or barrier drops
// the fresh copies unobserved. They are recorded for the chaos oracles
// when the crash fired at this append or failed the barrier: the next
// incarnation redelivers them unless the record reached the journal (or
// the replica) first — the output-commit window. An append refused
// because the store had crashed before it began wrote nothing, so its
// copies are redelivered exactly once and not recorded. A failed append
// leaves its admissions in the windows; no checkpoint can persist them,
// because every append failure (dead crash injector, sticky write error,
// closed store) also fails every later BeginCheckpoint.
func (b *Broker) flushAcks(seq int64, a *ackBatch) {
	if len(a.copies) == 0 {
		return
	}
	d := b.dur
	fresh := a.copies[:0]
	d.ackGate.RLock()
	for _, c := range a.copies {
		if !c.ns.win.admit(seq) {
			b.dedup(c.n, a.delivery(c))
			continue
		}
		fresh = append(fresh, c)
		a.nodes = append(a.nodes, c.n)
	}
	ticket, err := d.store.AppendAcks(seq, a.nodes)
	d.ackGate.RUnlock()
	if err == nil && len(fresh) > 0 {
		err = d.store.AckBarrier(ticket)
	}
	for _, c := range fresh {
		switch {
		case err == nil:
			b.observe(c.n, c.ns, a.delivery(c))
		case errors.Is(err, faults.ErrCrashed) && !errors.Is(err, durable.ErrAlreadyCrashed):
			d.noteLost(c.n, seq)
		}
	}
	clear(a.copies)
	a.d, a.copies, a.nodes = Delivery{}, a.copies[:0], a.nodes[:0]
}

// observe accounts one accepted copy and hands it to the observer.
func (b *Broker) observe(n topology.NodeID, ns *nodeState, d Delivery) {
	b.ctr.deliveries.Add(1)
	ns.delivered.Add(1)
	if !d.born.IsZero() {
		b.ctr.deliverLatency.ObserveDuration(time.Since(d.born))
	}
	d.trace.Add("ack", time.Now(), 0, int64(n), d.Group, "")
	if !d.Interested {
		b.ctr.wasted.Add(1)
	}
	if b.observer != nil {
		b.observer(n, d)
	}
}
