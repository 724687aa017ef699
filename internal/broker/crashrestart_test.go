package broker

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ckey identifies one message copy: a (node, publication) pair.
type ckey struct {
	node topology.NodeID
	seq  int64
}

// obs is a thread-safe observer tally of interested and total copies.
type obs struct {
	mu    sync.Mutex
	inter map[ckey]int // interested copies
	all   map[ckey]int // every observed copy, wasted included
}

func newObs() *obs {
	return &obs{inter: map[ckey]int{}, all: map[ckey]int{}}
}

func (o *obs) observer() Option {
	return WithObserver(func(n topology.NodeID, d Delivery) {
		k := ckey{n, d.Seq}
		o.mu.Lock()
		o.all[k]++
		if d.Interested {
			o.inter[k]++
		}
		o.mu.Unlock()
	})
}

// interestedNodes brute-forces the oracle's interest set for one event.
func interestedNodes(w *workload.World, ev workload.Event) map[topology.NodeID]bool {
	out := map[topology.NodeID]bool{}
	for _, s := range w.Subs {
		if s.Rect.Contains(ev.Point) {
			out[s.Owner] = true
		}
	}
	return out
}

// coveringRect returns a rectangle containing the world's event-space box
// and every one of the given events (stock random walks can stray past the
// nominal axis bounds) — a subscription on it matches everything published
// in the test.
func coveringRect(w *workload.World, evs []workload.Event) space.Rect {
	r := make(space.Rect, len(w.Axes))
	for i, a := range w.Axes {
		r[i] = space.Interval{Lo: a.Lo, Hi: a.Hi}
	}
	for _, ev := range evs {
		for i, x := range ev.Point {
			if x < r[i].Lo {
				r[i].Lo = x
			}
			if x > r[i].Hi {
				r[i].Hi = x
			}
		}
	}
	for i := range r {
		r[i].Lo-- // intervals are (Lo, Hi]: keep the envelope's min inside
	}
	return r
}

// noAutoCkpt disables the automatic checkpoint triggers so each scenario
// controls rotation explicitly.
func noAutoCkpt(crash *faults.CrashInjector) durable.Options {
	return durable.Options{CheckpointRecords: -1, CheckpointInterval: -1, Crash: crash}
}

// runCrashRestart is the crash–restart chaos harness. Incarnation 1 opens
// a durable broker over a fresh directory with a deterministic crash plan
// armed, publishes events until the plan fires (recording which Publish
// calls were acknowledged), optionally forces a mid-run checkpoint, and
// closes. Incarnation 2 rebuilds an identical engine from the same seeds,
// recovers from the directory, drains the redelivery, and closes.
//
// The oracle then checks, against brute-force interest:
//
//   - every acknowledged publish reached every interested node exactly
//     once across the two incarnations;
//   - every unacknowledged publish reached each node at most once;
//   - no (node, seq) pair anywhere — wasted copies included — saw a
//     duplicate.
//
// It returns the recovered broker's recovery stats plus whether the
// mid-run checkpoint (if requested) completed before the crash, for
// scenario-specific assertions.
func runCrashRestart(t *testing.T, plan faults.CrashPlan, midCkpt bool) (durable.RecoveryStats, bool) {
	t.Helper()
	const nEvents = 150
	cfg := core.Config{Groups: 25, CellBudget: 500}
	seed := int64(401)
	dir := t.TempDir()

	e1, w := testEngine(t, cfg, seed)
	evs := w.Events(nEvents, seed+10)
	o := newObs()
	inj := faults.NewCrashInjector(plan)
	b1, err := Open(dir, e1, WithWorkers(2), o.observer(),
		WithDurableOptions(noAutoCkpt(inj)))
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Durable() {
		t.Fatal("Open returned a non-durable broker")
	}

	acked := make([]bool, nEvents)
	crashed, ckptOK := false, false
	for i := range evs {
		// Early enough that the append-counter crash plans usually fire
		// after it — but acks append concurrently, so whether the
		// checkpoint beat the crash is only known from its return.
		if midCkpt && i == 10 {
			err := b1.Checkpoint()
			ckptOK = err == nil
			if err != nil && !errors.Is(err, faults.ErrCrashed) {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
		err := b1.Publish(evs[i])
		switch {
		case err == nil:
			acked[i] = true
		case errors.Is(err, faults.ErrCrashed):
			crashed = true
		default:
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if plan.Point != faults.CrashMidCheckpoint && !crashed {
		t.Fatalf("crash plan %v never fired during publishing", plan)
	}
	// The copies named by the ack record the crash fired at sit in the
	// output-commit window. Only an after-append crash leaves that record
	// on disk, so only there is their delivery count legitimately 0 or 1 —
	// never 2; a before-append or torn record never reaches recovery, so
	// its copies are redelivered exactly once, like those of every ack
	// append the dead store refused. Read after Close: fan-out workers may
	// still be recording the copies when Publish returns.
	b1.Close()
	dropped := b1.CrashDroppedCopies()
	droppedSeqs := map[int64]bool{}
	for _, a := range dropped {
		droppedSeqs[a.Seq] = true
	}
	if len(droppedSeqs) > 1 {
		t.Errorf("crash dropped copies of %d events, want only those of the ack record it fired at", len(droppedSeqs))
	}
	uncertain := map[ckey]bool{}
	if plan.Point == faults.CrashAfterAppend {
		for _, a := range dropped {
			uncertain[ckey{a.Node, a.Seq}] = true
		}
	}

	// Incarnation 2: identical engine from the same seeds, recover, drain.
	e2, _ := testEngine(t, cfg, seed)
	b2, err := Open(dir, e2, WithWorkers(2), o.observer())
	if err != nil {
		t.Fatal(err)
	}
	rec := b2.Recovery()
	b2.Close()

	// Oracle. Sequence numbers are assigned in Publish-call order by the
	// single publishing goroutine, so event i carries seq i.
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, ev := range evs {
		want := interestedNodes(w, ev)
		for n := range want {
			got := o.inter[ckey{n, int64(i)}]
			if acked[i] && got != 1 && !uncertain[ckey{n, int64(i)}] {
				t.Errorf("acked event %d delivered %d times to interested node %d, want exactly 1", i, got, n)
			}
			if !acked[i] && got > 1 {
				t.Errorf("unacked event %d delivered %d times to node %d", i, got, n)
			}
		}
	}
	for k, c := range o.all {
		if c > 1 {
			t.Errorf("node %d received seq %d %d times (dedup across restart failed)", k.node, k.seq, c)
		}
	}
	return rec, ckptOK
}

func TestCrashRestartExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("crash–restart chaos suite is slow; run without -short")
	}
	points := []faults.CrashPoint{
		faults.CrashBeforeAppend, faults.CrashAfterAppend, faults.CrashTornAppend,
	}
	for _, p := range points {
		for _, midCkpt := range []bool{false, true} {
			name := p.String()
			if midCkpt {
				name += "-after-checkpoint"
			}
			t.Run(name, func(t *testing.T) {
				// The append counter covers publish, ack and churn records.
				// An event appends its publish record and at most one ack
				// record, so append 100 lands mid-stream of 150 events.
				rec, ckptOK := runCrashRestart(t, faults.CrashPlan{AtAppend: 100, Point: p}, midCkpt)
				if rec.RecordsReplayed == 0 {
					t.Error("recovery replayed nothing; crash plan misfired")
				}
				if ckptOK && !rec.CheckpointLoaded {
					t.Error("completed checkpoint not loaded at recovery")
				}
				if !midCkpt && rec.CheckpointLoaded {
					t.Error("CheckpointLoaded without any checkpoint")
				}
				if p == faults.CrashTornAppend && rec.TornTruncations != 1 {
					t.Errorf("TornTruncations = %d, want 1", rec.TornTruncations)
				}
				if p != faults.CrashTornAppend && rec.TornTruncations != 0 {
					t.Errorf("TornTruncations = %d, want 0", rec.TornTruncations)
				}
			})
		}
	}
}

func TestCrashRestartMidCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("crash–restart chaos suite is slow; run without -short")
	}
	// The mid-checkpoint crash strands the temp file between write and
	// rename: the checkpoint must not take effect, and both the original
	// and the freshly rotated journal must replay.
	rec, _ := runCrashRestart(t, faults.CrashPlan{Point: faults.CrashMidCheckpoint}, true)
	if rec.CheckpointLoaded {
		t.Error("half-installed checkpoint was loaded")
	}
	if rec.JournalsReplayed != 2 {
		t.Errorf("JournalsReplayed = %d, want 2 (original + rotated)", rec.JournalsReplayed)
	}
}

// TestCrashRestartTornTailTelemetry pins the torn-tail contract end to
// end: the recovered broker's telemetry carries the CRC-detected
// truncation under durable/torn_truncations.
func TestCrashRestartTornTailTelemetry(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	e1, w := testEngine(t, cfg, 431)
	evs := w.Events(60, 440)
	inj := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 30, Point: faults.CrashTornAppend})
	b1, err := Open(dir, e1, WithWorkers(2), WithDurableOptions(noAutoCkpt(inj)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if err := b1.Publish(evs[i]); errors.Is(err, faults.ErrCrashed) {
			break
		}
	}
	if !inj.Dead() {
		t.Fatal("torn crash never fired")
	}
	b1.Close()

	e2, _ := testEngine(t, cfg, 431)
	b2, err := Open(dir, e2, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := b2.Recovery().TornTruncations; got != 1 {
		t.Errorf("Recovery().TornTruncations = %d, want 1", got)
	}
	snap := b2.Telemetry().Snapshot()
	if got := snap["durable"].Counters["torn_truncations"]; got != 1 {
		t.Errorf("durable/torn_truncations = %d, want 1", got)
	}
	if snap["durable"].Counters["replayed_records"] == 0 {
		t.Error("durable/replayed_records = 0 after a journal replay")
	}
}

// TestDurableCleanShutdownRestart pins the Stats preservation contract: a
// clean Close checkpoints everything, the next incarnation replays zero
// records, carries the cumulative work counters forward, and resets the
// per-incarnation ones.
func TestDurableCleanShutdownRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	seed := int64(451)
	e1, w := testEngine(t, cfg, seed)
	evs := w.Events(120, seed+10)
	o := newObs()

	b1, err := Open(dir, e1, WithWorkers(2), o.observer())
	if err != nil {
		t.Fatal(err)
	}
	// One churn request before the traffic: makes SnapshotSwaps nonzero in
	// this incarnation (so its reset is observable) and exercises the
	// preserved Subscribes counter. A full-space subscription keeps the
	// oracle simple — its owner must see every event exactly once.
	extra := coveringRect(w, evs)
	extraOwner := w.SubscriberNodes[0]
	if _, err := b1.Subscribe(workload.Subscription{Owner: extraOwner, Rect: extra}); err != nil {
		t.Fatal(err)
	}
	for i := range evs[:80] {
		if err := b1.Publish(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	b1.Close()
	st1 := b1.Stats()
	if st1.Published != 80 {
		t.Fatalf("incarnation 1 Published = %d, want 80", st1.Published)
	}
	if st1.SnapshotSwaps == 0 {
		t.Fatal("incarnation 1 made no snapshot swaps")
	}
	if st1.Subscribes != 1 {
		t.Fatalf("incarnation 1 Subscribes = %d, want 1", st1.Subscribes)
	}

	e2, _ := testEngine(t, cfg, seed)
	b2, err := Open(dir, e2, WithWorkers(2), o.observer())
	if err != nil {
		t.Fatal(err)
	}
	rec := b2.Recovery()
	if !rec.CheckpointLoaded {
		t.Error("clean shutdown did not leave a checkpoint")
	}
	if rec.Outstanding != 0 || rec.RecordsReplayed != 0 {
		t.Errorf("clean restart replayed %d records, %d outstanding; want 0/0",
			rec.RecordsReplayed, rec.Outstanding)
	}

	// Preserved counters carry forward before any new traffic...
	st2 := b2.Stats()
	if st2.Published != st1.Published || st2.Deliveries != st1.Deliveries ||
		st2.Multicast != st1.Multicast || st2.Unicast != st1.Unicast ||
		st2.Wasted != st1.Wasted || st2.Subscribes != st1.Subscribes {
		t.Errorf("preserved counters drifted across restart:\n  before %+v\n  after  %+v", st1, st2)
	}
	// ...while per-incarnation counters restart at zero.
	if st2.SnapshotSwaps >= st1.SnapshotSwaps {
		t.Errorf("SnapshotSwaps = %d not reset (incarnation 1 ended at %d)",
			st2.SnapshotSwaps, st1.SnapshotSwaps)
	}

	// New traffic continues the preserved counters and the seq space.
	for i := range evs[80:] {
		if err := b2.Publish(evs[80+i]); err != nil {
			t.Fatal(err)
		}
	}
	b2.Close()
	if got := b2.Stats().Published; got != 120 {
		t.Errorf("cumulative Published = %d, want 120", got)
	}

	// Exactly-once for every event across both incarnations — including to
	// the churned full-space subscriber, which must see all 120.
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, ev := range evs {
		want := interestedNodes(w, ev)
		want[extraOwner] = true
		for n := range want {
			if got := o.inter[ckey{n, int64(i)}]; got != 1 {
				t.Errorf("event %d delivered %d times to node %d, want 1", i, got, n)
			}
		}
	}
	for k, c := range o.all {
		if c > 1 {
			t.Errorf("node %d received seq %d %d times", k.node, k.seq, c)
		}
	}
}

// TestDurableCleanCrashRecoverTimeline drives one state directory through
// three incarnations: a clean one that checkpoints on Close, one that
// loads that checkpoint and is then killed mid-stream by a scheduled
// crash, and one that recovers from the checkpoint plus the journal tail.
// The recovery must redeliver the copies the crash stranded, so the
// preserved Deliveries counter ends above the crashed incarnation's.
// Small enough to run under -short, unlike the crash matrix above.
func TestDurableCleanCrashRecoverTimeline(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	seed := int64(491)
	e1, w := testEngine(t, cfg, seed)
	evs := w.Events(60, seed+10)
	half := len(evs) / 2

	b1, err := Open(dir, e1, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs[:half] {
		if err := b1.Publish(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	b1.Close()
	if rec := b1.Recovery(); rec.CheckpointLoaded || rec.RecordsReplayed != 0 {
		t.Errorf("clean incarnation over a fresh directory saw recovery: %+v", rec)
	}

	e2, _ := testEngine(t, cfg, seed)
	// Append 1 is the first publish record. Append 2 is its ack record or
	// the next publish record, whichever comes first; either way the crash
	// before it leaves the first publish acknowledged but none of its
	// copies counted, so recovery has them to redeliver.
	inj := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 2, Point: faults.CrashBeforeAppend})
	b2, err := Open(dir, e2, WithWorkers(2), WithDurableOptions(noAutoCkpt(inj)))
	if err != nil {
		t.Fatal(err)
	}
	if !b2.Recovery().CheckpointLoaded {
		t.Error("incarnation after a clean close did not load its checkpoint")
	}
	acked := 0
	for i := range evs[half:] {
		switch err := b2.Publish(evs[half+i]); {
		case err == nil:
			acked++
		case errors.Is(err, faults.ErrCrashed):
		default:
			t.Fatalf("publish %d: %v", half+i, err)
		}
	}
	b2.Close()
	if !inj.Dead() || acked == 0 || acked == len(evs)-half {
		t.Fatalf("crash did not fire mid-stream: dead %v, acked %d of %d", inj.Dead(), acked, len(evs)-half)
	}
	crashed := b2.Stats()

	e3, _ := testEngine(t, cfg, seed)
	b3, err := Open(dir, e3, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	b3.Close()
	rec := b3.Recovery()
	if rec.RecordsReplayed == 0 || rec.Outstanding == 0 {
		t.Errorf("recovery replayed %d records with %d outstanding publishes; want both > 0",
			rec.RecordsReplayed, rec.Outstanding)
	}
	if got := b3.Stats().Deliveries; got <= crashed.Deliveries {
		t.Errorf("redelivery did not raise the preserved Deliveries counter: %d ≤ %d",
			got, crashed.Deliveries)
	}
}

// TestDurableChurnCrashRestart drives subscription churn through a
// durable broker, crashes it, and verifies the churned state — a new
// subscriber on a previously subscription-free node, and a removed base
// subscription — survives into the next incarnation.
func TestDurableChurnCrashRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	seed := int64(461)
	e1, w := testEngine(t, cfg, seed)

	// A node with no base subscriptions, to make the positive assertion
	// unambiguous.
	isSub := map[topology.NodeID]bool{}
	for _, n := range w.SubscriberNodes {
		isSub[n] = true
	}
	var fresh topology.NodeID = -1
	for n := 0; n < w.Graph.NumNodes(); n++ {
		if !isSub[topology.NodeID(n)] {
			fresh = topology.NodeID(n)
			break
		}
	}
	if fresh < 0 {
		t.Skip("every node subscribes in this world")
	}
	all := coveringRect(w, w.Events(100, seed+10))

	o := newObs()
	// Crash on the append counter after the two churn appends but before
	// the 100 publish appends run out (acks only bring it forward).
	inj := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 60, Point: faults.CrashAfterAppend})
	b1, err := Open(dir, e1, WithWorkers(2), o.observer(), WithDurableOptions(noAutoCkpt(inj)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.Subscribe(workload.Subscription{Owner: fresh, Rect: all}); err != nil {
		t.Fatal(err)
	}
	if err := b1.Unsubscribe(0); err != nil { // base slot 0
		t.Fatal(err)
	}
	evs := w.Events(100, seed+10)
	acked := 0
	for i := range evs {
		if err := b1.Publish(evs[i]); err == nil {
			acked++
		}
	}
	if !inj.Dead() {
		t.Fatal("crash plan never fired")
	}
	b1.Close()

	// Recover into an identical pristine engine: churn must be replayed.
	e2, _ := testEngine(t, cfg, seed)
	o2 := newObs()
	b2, err := Open(dir, e2, WithWorkers(2), o2.observer())
	if err != nil {
		t.Fatal(err)
	}
	// No checkpoint ever committed, so the preserved counters restart at
	// zero — durable identity lives in the journal, not in the counters.
	if got := b2.Stats().Subscribes; got != 0 {
		t.Errorf("Subscribes = %d after checkpoint-free recovery, want 0", got)
	}
	if got, want := b2.Recovery().Outstanding, acked; got == 0 || got > want+1 {
		t.Errorf("Outstanding = %d, want ≈ %d acked publishes", got, want)
	}
	// The recovered full-space subscription receives any post-restart
	// publish exactly once.
	post := workload.Event{Pub: evs[0].Pub, Point: evs[0].Point}
	if err := b2.Publish(post); err != nil {
		t.Fatal(err)
	}
	b2.Close()

	postSeq := int64(-1)
	o2.mu.Lock()
	for k := range o2.inter {
		if k.node == fresh && k.seq > postSeq {
			postSeq = k.seq
		}
	}
	recvd := 0
	for k, c := range o2.inter {
		if k.node == fresh && k.seq == postSeq {
			recvd = c
		}
	}
	o2.mu.Unlock()
	if recvd != 1 {
		t.Errorf("recovered subscription received the post-restart publish %d times, want 1", recvd)
	}
}

// TestDurableFreshDirIsJustNew sanity-checks the no-recovery path: a
// durable broker over an empty directory behaves like New and reports
// zero recovery work.
func TestDurableFreshDirIsJustNew(t *testing.T) {
	e, w := testEngine(t, core.Config{Groups: 10, CellBudget: 300}, 471)
	b, err := Open(t.TempDir(), e, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rec := b.Recovery(); rec.CheckpointLoaded || rec.RecordsReplayed != 0 {
		t.Errorf("fresh directory recovery stats = %+v", rec)
	}
	evs := w.Events(20, 480)
	for i := range evs {
		if err := b.Publish(evs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverLegacyAckRecords: a journal written partly by an older binary
// — one kind-4 ack record per delivered copy — and partly by this one — one
// ack record per event — recovers both kinds, and both suppress the replay
// of the copies they name. The legacy frames are written by hand, since
// nothing in the tree writes kind 4 any more.
func TestRecoverLegacyAckRecords(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	e, w := testEngine(t, cfg, 995)
	base := durable.BaseInfo{Hash: durable.HashBase(w.Subs), Count: int64(len(w.Subs))}
	evs := w.Events(6, 996)

	// ackedAt picks every other node interested in evs[seq] as one whose
	// copy arrived before the restart.
	ackedAt := func(seq int64) []topology.NodeID {
		var ns []topology.NodeID
		for n := range interestedNodes(w, evs[seq]) {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		var out []topology.NodeID
		for i := 0; i < len(ns); i += 2 {
			out = append(out, ns[i])
		}
		return out
	}
	legacy, current := ackedAt(0), ackedAt(1)
	if len(legacy) == 0 || len(current) == 0 {
		t.Fatal("events 0 and 1 interest no node: pick another seed")
	}

	// The older binary: publishes, then one kind-4 frame per acked copy.
	s, _, err := durable.Open(dir, base, noAutoCkpt(nil))
	if err != nil {
		t.Fatal(err)
	}
	for seq, ev := range evs {
		if err := s.AppendPublish(int64(seq), ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "journal.*.log"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("journals %v (%v), want one", journals, err)
	}
	f, err := os.OpenFile(journals[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range legacy {
		payload := []byte{4} // kind 4: node, seq
		payload = binary.LittleEndian.AppendUint64(payload, uint64(n))
		payload = binary.LittleEndian.AppendUint64(payload, 0)
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		if _, err := f.Write(append(frame, payload...)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// This binary resumes the same journal with a per-event ack record.
	s, st, err := durable.Open(dir, base, noAutoCkpt(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Acks) != len(legacy) {
		t.Fatalf("recovered %d acks from %d legacy records", len(st.Acks), len(legacy))
	}
	if _, err := s.AppendAcks(1, current); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	o := newObs()
	b, err := Open(dir, e, WithWorkers(2), o.observer(), WithDurableOptions(noAutoCkpt(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := b.Recovery().Outstanding; got != len(evs) {
		t.Fatalf("redelivered %d publishes, want %d", got, len(evs))
	}
	suppressed := map[ckey]bool{}
	for _, n := range legacy {
		suppressed[ckey{n, 0}] = true
	}
	for _, n := range current {
		suppressed[ckey{n, 1}] = true
	}
	for seq, ev := range evs {
		for n := range interestedNodes(w, ev) {
			k := ckey{n, int64(seq)}
			want := 1
			if suppressed[k] {
				want = 0
			}
			if got := o.inter[k]; got != want {
				t.Errorf("node %d seq %d delivered %d times after recovery, want %d", n, seq, got, want)
			}
		}
	}
}

// TestCheckpointWaitsForAckRecord pins the ack-ordering invariant: no
// checkpoint captures a window admission whose ack record is not yet
// appended. flushAcks admits an event's copies before it appends their
// one record; here it is held between the two — node a admitted, the
// batch's second copy stuck on a window lock the test holds — while a
// checkpoint runs. The checkpoint must wait. If it captured a's admission
// and committed, the append failing afterwards would leave a checkpoint
// that suppresses the redelivery of a copy that never arrived.
func TestCheckpointWaitsForAckRecord(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Groups: 10, CellBudget: 300}
	e, w := testEngine(t, cfg, 997)
	b, err := Open(dir, e, WithWorkers(1), WithDurableOptions(noAutoCkpt(nil)))
	if err != nil {
		t.Fatal(err)
	}
	ev := w.Events(1, 998)[0]
	var a topology.NodeID = -1
	for n := range interestedNodes(w, ev) {
		if a < 0 || n < a {
			a = n
		}
	}
	if a < 0 {
		t.Fatal("the event interests no node: pick another seed")
	}
	// Journal the publish as Publish would, without letting a fan-out
	// worker deliver it.
	d := b.dur
	seq := b.seq.Add(1) - 1
	if err := d.store.AppendPublish(seq, ev); err != nil {
		t.Fatal(err)
	}
	d.inflight.Store(seq, ev)

	stuck := &nodeState{win: &lockedWindow{w: wire.NewWindow(16)}}
	stuck.win.mu.Lock()
	batch := &ackBatch{d: Delivery{Event: ev, Seq: seq}, copies: []ackedCopy{
		{n: a, ns: b.routes.Load().nodes[a], interested: true},
		{n: -2, ns: stuck},
	}}
	flushed := make(chan struct{})
	go func() {
		b.flushAcks(seq, batch)
		close(flushed)
	}()
	for admitted := false; !admitted; {
		time.Sleep(100 * time.Microsecond)
		lw := b.routes.Load().nodes[a].win
		lw.mu.Lock()
		admitted = lw.w.Seen(seq)
		lw.mu.Unlock()
	}

	ckpt := make(chan error, 1)
	go func() {
		ckpt <- b.Checkpoint()
		close(ckpt)
	}()
	select {
	case err := <-ckpt:
		t.Errorf("checkpoint finished (err %v) while an admitted copy's ack record was pending", err)
	case <-time.After(200 * time.Millisecond):
	}
	// The pending append now fails, as at a crash; so does the checkpoint.
	d.store.Close()
	stuck.win.mu.Unlock()
	<-flushed
	for range ckpt {
	}
	b.Close() // the store is closed: the final checkpoint fails, as intended

	e2, _ := testEngine(t, cfg, 997)
	o := newObs()
	b2, err := Open(dir, e2, WithWorkers(1), o.observer(), WithDurableOptions(noAutoCkpt(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := o.all[ckey{a, seq}]; got != 1 {
		t.Errorf("node %d received seq %d %d times across the restart, want 1", a, seq, got)
	}
}
