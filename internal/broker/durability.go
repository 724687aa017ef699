package broker

// Durable broker state. A broker created with Open persists everything it
// cannot rebuild from its engine's base subscriptions:
//
//   - churn records (Subscribe/Unsubscribe) appended and group-committed
//     by the writer goroutine *before* the snapshot swap, so journal
//     replay order equals snapshot swap order;
//   - publish records appended (and fsync-batched) before Publish returns,
//     so an acknowledged publish survives any crash;
//   - one delivery-ack record per event, naming every node that admitted
//     a copy, appended before any of them is counted, so recovery knows
//     which copies already arrived; under replication one ack barrier per
//     event covers the record before any copy is observed;
//   - periodic checkpoints — journal rotation, in-flight publishes carried
//     into the fresh epoch, then engine churn state + per-node dedup
//     windows + preserved counters installed atomically — after which the
//     previous epochs' journals are deleted.
//
// Recovery (Open over a used directory) rebuilds the engine from base +
// checkpoint + journal tail, restores the dedup windows, and redelivers
// every journal-tail publish under its original sequence number: copies
// that already arrived are suppressed by the restored windows, copies that
// never arrived land now — exactly once overall for any publish whose
// Publish call returned nil before the crash.
//
// Durable identity: the engine's slot numbers compact on Refresh, so each
// subscription also gets a durable id — base subscriptions own ids
// 0..baseCount-1, churned ones count up from there, ids never reused. The
// writer goroutine keeps the slot↔id map and remaps it across refreshes
// via Engine.LiveSlots.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// preservedCounters are the broker counters a durable restart carries
// forward (at checkpoint granularity): the cumulative work done across
// incarnations. Everything else — reliability, overload, snapshot and
// per-node counters — describes one incarnation's pathology and restarts
// at zero; see Broker.Stats.
var preservedCounters = []string{
	"published", "multicast_events", "unicast_events", "broadcast_events",
	"deliveries", "wasted", "subscribes", "unsubscribes",
}

// lockedWindow pairs a node's dedup window with a mutex: two fan-out
// workers may accept copies for one node at once, and checkpoints capture
// the window while they do. On a durable broker the lock does not order an
// admission against its ack record; durState.ackGate does (see flushAcks).
type lockedWindow struct {
	mu sync.Mutex
	w  *wire.Window
}

// admit reports whether seq is new to the window and, if so, admits it.
func (lw *lockedWindow) admit(seq int64) bool {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Admit(seq)
}

func (lw *lockedWindow) capture() (int64, []int64) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Snapshot()
}

// recoveredInit carries recovery products from Open into New (windows and
// counters can only be materialised once the reliability defaults and the
// telemetry registry are resolved).
type recoveredInit struct {
	windows  []durable.WindowState
	acks     []durable.AckRecord
	counters map[string]int64
	nextSeq  int64
}

// durState is the broker's durability bookkeeping. The identity maps are
// owned by the writer goroutine (churn, refresh remaps and checkpoints all
// run there); inflight is shared with publishers and fan-out workers.
type durState struct {
	store *durable.Store

	// Writer-owned durable-identity bookkeeping.
	nextID      int64
	baseCount   int64
	slotToID    map[int]int64
	subs        map[int64]durable.SubRecord // live churned subs (id ≥ baseCount)
	removedBase map[int64]bool

	// inflight maps seq → workload.Event for publishes whose fan-out has
	// not finished; checkpoints re-append these into the fresh journal
	// epoch so truncation never drops an undelivered publish.
	inflight sync.Map

	// ackGate orders window admissions against their ack records: fan-out
	// workers hold the read side from an event's first admission until its
	// ack record is appended, and a checkpoint holds the write side while
	// it captures the windows — so no capture sees an admission whose
	// record is not yet in the journal.
	ackGate sync.RWMutex

	// recovered seeds the windows of nodes not yet in the route table.
	recovered map[topology.NodeID]*wire.Window

	// lost records copies dropped unobserved because a simulated crash
	// interrupted their ack append — the output-commit window where the
	// next incarnation cannot tell whether the copy was handed over. Only
	// chaos harnesses read it (a real crash takes the process with it).
	lostMu sync.Mutex
	lost   []durable.AckRecord

	init *recoveredInit
}

// noteLost records one copy dropped unobserved by a simulated crash.
func (d *durState) noteLost(n topology.NodeID, seq int64) {
	d.lostMu.Lock()
	d.lost = append(d.lost, durable.AckRecord{Node: n, Seq: seq})
	d.lostMu.Unlock()
}

// CrashDroppedCopies lists the (node, seq) copies this incarnation dropped
// unobserved because a simulated crash fired at the ack append of the
// copy's event or failed its ack barrier. For each listed pair the
// delivery count across incarnations is 0 or 1 — whether the suppressing
// ack reached the journal (or the replica) before the crash is exactly
// what the crash made unknowable — so chaos oracles assert "never 2" there
// and "exactly 1" everywhere else. Copies whose ack append the dead store
// refused are not listed: nothing of it was written. The list is complete
// once Close returns; fan-out workers may still add to it after the
// Publish that saw the crash. Empty without fault injection.
func (b *Broker) CrashDroppedCopies() []durable.AckRecord {
	if b.dur == nil {
		return nil
	}
	b.dur.lostMu.Lock()
	defer b.dur.lostMu.Unlock()
	return append([]durable.AckRecord(nil), b.dur.lost...)
}

// WithDurableOptions tunes the durable store Open attaches (checkpoint
// cadence, crash injection). Ignored by New: durability only comes from
// Open.
func WithDurableOptions(o durable.Options) Option {
	return func(b *Broker) { b.durOpts = &o }
}

// withDurState installs the durability state Open assembled.
func withDurState(d *durState) Option {
	return func(b *Broker) { b.dur = d }
}

// Open creates or recovers a durable broker over dir. The engine must be
// pristine — its current subscriptions define the base population the
// journal is written against, and Open refuses a directory written against
// a different base — and is owned by the broker afterwards, exactly as
// with New. opts are the usual New options; add WithDurableOptions to tune
// checkpoint cadence or inject crash points.
//
// Over a fresh directory, Open is New plus journaling. Over a used one it
// rebuilds subscriptions from checkpoint + journal tail (slot ids are
// reassigned — durable identity lives in the journal, not in slots),
// restores dedup windows and preserved counters, and redelivers the
// journal tail's publishes before returning; Recovery reports what it did.
func Open(dir string, engine *core.Engine, opts ...Option) (*Broker, error) {
	if engine == nil {
		return nil, fmt.Errorf("broker: nil engine")
	}
	// Probe the options for the durable tuning (options only set fields).
	probe := &Broker{}
	for _, o := range opts {
		o(probe)
	}
	var dopts durable.Options
	if probe.durOpts != nil {
		dopts = *probe.durOpts
	}

	base := durable.BaseInfo{
		Hash:  durable.HashBase(engine.World().Subs),
		Count: int64(len(engine.World().Subs)),
	}
	store, st, err := durable.Open(dir, base, dopts)
	if err != nil {
		return nil, err
	}

	d := &durState{
		store:       store,
		baseCount:   base.Count,
		nextID:      base.Count,
		slotToID:    make(map[int]int64, base.Count),
		subs:        map[int64]durable.SubRecord{},
		removedBase: map[int64]bool{},
	}
	for _, slot := range engine.LiveSlots() {
		d.slotToID[slot] = int64(slot) // pristine engine: slot i holds base id i
	}

	var outstanding []durable.PublishRecord
	if st != nil {
		d.nextID = st.NextID
		// Replay churn into the engine: base removals first (their slots
		// are their ids while the engine is uncompacted), then the live
		// churned subscriptions in id order — AddSubscription assigns slots
		// deterministically by insertion order.
		for _, id := range st.RemovedBase {
			if err := engine.RemoveSubscription(int(id)); err != nil {
				store.Close()
				return nil, fmt.Errorf("broker: recovery removing base sub %d: %w", id, err)
			}
			delete(d.slotToID, int(id))
			d.removedBase[id] = true
		}
		for _, rec := range st.Subs {
			slot, err := engine.AddSubscription(workload.Subscription{Owner: rec.Owner, Rect: rec.Rect})
			if err != nil {
				store.Close()
				return nil, fmt.Errorf("broker: recovery adding sub %d: %w", rec.ID, err)
			}
			d.slotToID[slot] = rec.ID
			d.subs[rec.ID] = rec
		}
		d.init = &recoveredInit{
			windows:  st.Windows,
			acks:     st.Acks,
			counters: st.Counters,
			nextSeq:  st.NextSeq,
		}
		outstanding = st.Outstanding
	}

	b, err := New(engine, append(opts[:len(opts):len(opts)], withDurState(d))...)
	if err != nil {
		store.Close()
		return nil, err
	}

	// Redeliver the journal tail under the original sequence numbers: the
	// restored dedup windows suppress the copies that already arrived, so
	// every pre-crash-acknowledged publish lands exactly once overall.
	if len(outstanding) > 0 {
		snap := b.snap.Load()
		for _, p := range outstanding {
			b.dur.inflight.Store(p.Seq, p.Ev)
		}
		for _, p := range outstanding {
			b.publishCh <- queued{seq: p.Seq, ev: p.Ev, snap: snap, replay: true}
		}
	}
	return b, nil
}

// initDurable finishes durability setup inside New, once the reliability
// defaults and telemetry registry exist: restore recovered dedup windows
// (normalising them to the configured DedupWindow), seed the preserved
// counters, and position the sequence allocator past everything journaled.
func (b *Broker) initDurable() {
	d := b.dur
	d.recovered = map[topology.NodeID]*wire.Window{}
	d.store.Instrument(b.reg)
	if d.init == nil {
		return
	}
	in := d.init
	d.init = nil
	for _, ws := range in.windows {
		d.recovered[ws.Node] = wire.RestoreWindow(b.rel.DedupWindow, ws.Max, ws.Seqs)
	}
	for _, a := range in.acks {
		w, ok := d.recovered[a.Node]
		if !ok {
			w = wire.NewWindow(b.rel.DedupWindow)
			d.recovered[a.Node] = w
		}
		w.Admit(a.Seq)
	}
	scope := b.reg.Scope("broker")
	for name, v := range in.counters {
		scope.Counter(name).Add(v)
	}
	b.seq.Store(in.nextSeq)
}

// nodeWindow builds node n's dedup window when n enters the route table:
// nil unless the broker is durable or fault-injected (only then can a copy
// arrive twice), seeded from recovery on a durable broker.
func (b *Broker) nodeWindow(n topology.NodeID) *lockedWindow {
	if b.dur == nil && b.inj == nil {
		return nil
	}
	var w *wire.Window
	if b.dur != nil {
		w = b.dur.recovered[n]
		delete(b.dur.recovered, n)
	}
	if w == nil {
		w = wire.NewWindow(b.rel.DedupWindow)
	}
	return &lockedWindow{w: w}
}

// journalChurn appends one record per applied churn request, then issues a
// single group-commit barrier — all before the caller swaps the snapshot,
// so journal replay order equals snapshot swap order. A crashed store
// fails the affected requests; the engine may then be ahead of the
// journal, which is moot — the process is dead to durability and the next
// incarnation rebuilds from disk.
func (b *Broker) journalChurn(reqs []churnReq, resps []churnResp) {
	d := b.dur
	dirty := false
	for i, r := range reqs {
		if resps[i].err != nil {
			continue
		}
		if r.sub != nil {
			rec := durable.SubRecord{ID: d.nextID, Owner: r.sub.Owner, Rect: r.sub.Rect.Clone()}
			if err := d.store.AppendSubscribe(rec); err != nil {
				resps[i] = churnResp{err: err}
				continue
			}
			d.nextID++
			d.slotToID[resps[i].slot] = rec.ID
			d.subs[rec.ID] = rec
			dirty = true
		} else {
			id, ok := d.slotToID[r.slot]
			if !ok {
				continue // engine rejected unknown slots already
			}
			if err := d.store.AppendUnsubscribe(id); err != nil {
				resps[i] = churnResp{err: err}
				continue
			}
			delete(d.slotToID, r.slot)
			if id < d.baseCount {
				d.removedBase[id] = true
			} else {
				delete(d.subs, id)
			}
			dirty = true
		}
	}
	if !dirty {
		return
	}
	if err := d.store.Sync(); err != nil {
		// The barrier failed: nothing in this batch is guaranteed durable.
		for i := range resps {
			if resps[i].err == nil {
				resps[i].err = err
			}
		}
	}
}

// remapSlots rebuilds the slot→durable-id map after a Refresh compacted
// the live slots: old slot live[i] became slot i.
func (b *Broker) remapSlots(live []int) {
	d := b.dur
	m := make(map[int]int64, len(live))
	for newSlot, oldSlot := range live {
		if id, ok := d.slotToID[oldSlot]; ok {
			m[newSlot] = id
		}
	}
	d.slotToID = m
}

// checkpointDue reports whether the automatic checkpoint should run: on a
// timed tick anything journaled since the last checkpoint is worth
// truncating away; between ticks only the record-count threshold triggers.
func (b *Broker) checkpointDue(timed bool) bool {
	if b.dur == nil || b.dur.store.Crashed() {
		return false
	}
	n := b.dur.store.AppendedSinceCheckpoint()
	if timed {
		return n > 0
	}
	recs := b.dur.store.Options().CheckpointRecords
	return recs > 0 && n >= recs
}

// doCheckpoint rotates the journal, carries the in-flight publishes into
// the fresh epoch, captures the broker's durable state and installs the
// checkpoint (after which previous epochs' journals are deleted). Runs on
// the writer goroutine — or in Close, once everything else is quiescent.
func (b *Broker) doCheckpoint() error {
	d := b.dur
	if err := d.store.BeginCheckpoint(); err != nil {
		return err
	}
	var carry []durable.PublishRecord
	d.inflight.Range(func(k, v any) bool {
		carry = append(carry, durable.PublishRecord{Seq: k.(int64), Ev: v.(workload.Event)})
		return true
	})
	sort.Slice(carry, func(i, j int) bool { return carry[i].Seq < carry[j].Seq })
	if err := d.store.AppendPublishes(carry); err != nil {
		return err
	}

	cp := &durable.Checkpoint{
		NextSeq:  b.seq.Load(),
		NextID:   d.nextID,
		Counters: make(map[string]int64, len(preservedCounters)),
	}
	for id := range d.removedBase {
		cp.RemovedBase = append(cp.RemovedBase, id)
	}
	sort.Slice(cp.RemovedBase, func(i, j int) bool { return cp.RemovedBase[i] < cp.RemovedBase[j] })
	for _, rec := range d.subs {
		cp.Subs = append(cp.Subs, rec)
	}
	sort.Slice(cp.Subs, func(i, j int) bool { return cp.Subs[i].ID < cp.Subs[j].ID })
	// Only the writer grows the route table (and Close runs quiescent);
	// every node of a durable broker has a window. The write side of
	// ackGate keeps out admissions whose ack record is not yet appended;
	// one appended before BeginCheckpoint's rotation is already visible.
	d.ackGate.Lock()
	for n, ns := range b.routes.Load().nodes {
		max, seqs := ns.win.capture()
		if max < 0 {
			continue // nothing admitted yet
		}
		cp.Windows = append(cp.Windows, durable.WindowState{Node: n, Size: b.rel.DedupWindow, Max: max, Seqs: seqs})
	}
	d.ackGate.Unlock()
	sort.Slice(cp.Windows, func(i, j int) bool { return cp.Windows[i].Node < cp.Windows[j].Node })
	scope := b.reg.Scope("broker")
	for _, name := range preservedCounters {
		cp.Counters[name] = scope.Counter(name).Value()
	}
	return d.store.CommitCheckpoint(cp)
}

// Checkpoint forces a checkpoint + journal truncation on the writer
// goroutine and returns its error. No-op without durability.
func (b *Broker) Checkpoint() error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	if b.dur == nil {
		return nil
	}
	reply := make(chan error, 1)
	b.ckptCh <- reply
	return <-reply
}

// Recovery reports what the Open that produced this broker had to replay.
// Zero for brokers from New or Open over a fresh directory.
func (b *Broker) Recovery() durable.RecoveryStats {
	if b.dur == nil {
		return durable.RecoveryStats{}
	}
	return b.dur.store.Recovery()
}

// Durable reports whether this broker persists its state (came from Open).
func (b *Broker) Durable() bool { return b.dur != nil }

// Store exposes the underlying durable store (nil for non-durable
// brokers). The replication layer uses it to capture catch-up snapshots;
// nothing else should touch it.
func (b *Broker) Store() *durable.Store {
	if b.dur == nil {
		return nil
	}
	return b.dur.store
}
