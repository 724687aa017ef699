package replicate

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testEngine builds the same deterministic world the broker suite uses:
// identical seeds give identical engines, which is what lets a promoted
// follower recover into "the same process image" the leader ran.
func testEngine(t testing.TB, cfg core.Config, seed int64) (*core.Engine, *workload.World) {
	t.Helper()
	topo := topology.Eval600
	topo.Seed = seed
	g, err := topology.Generate(topo)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: 300, PubModes: 1, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewFromWorld(w, w.Events(800, seed+2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, w
}

func baseOf(w *workload.World) durable.BaseInfo {
	return durable.BaseInfo{Hash: durable.HashBase(w.Subs), Count: int64(len(w.Subs))}
}

// ekey fingerprints one event. Failover reuses sequence numbers (a lost
// unacked record frees its seq for the next incarnation), so the oracle
// keys copies by event identity instead.
func ekey(ev workload.Event) string { return fmt.Sprintf("%d|%v", ev.Pub, ev.Point) }

// nk identifies one message copy: (node, event).
type nk struct {
	node topology.NodeID
	ev   string
}

// obs tallies observed copies across every incarnation it is attached to.
type obs struct {
	mu    sync.Mutex
	inter map[nk]int
	all   map[nk]int
}

func newObs() *obs { return &obs{inter: map[nk]int{}, all: map[nk]int{}} }

func (o *obs) observer() broker.Option {
	return broker.WithObserver(func(n topology.NodeID, d broker.Delivery) {
		k := nk{n, ekey(d.Event)}
		o.mu.Lock()
		o.all[k]++
		if d.Interested {
			o.inter[k]++
		}
		o.mu.Unlock()
	})
}

func interestedNodes(w *workload.World, ev workload.Event) map[topology.NodeID]bool {
	out := map[topology.NodeID]bool{}
	for _, s := range w.Subs {
		if s.Rect.Contains(ev.Point) {
			out[s.Owner] = true
		}
	}
	return out
}

// checkOracle asserts the exactly-once contract across however many
// incarnations fed o: acked events delivered exactly once per interested
// node, unacked at most once, zero duplicates anywhere.
func checkOracle(t *testing.T, w *workload.World, evs []workload.Event, acked []bool, o *obs) {
	t.Helper()
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, ev := range evs {
		want := interestedNodes(w, ev)
		for n := range want {
			got := o.inter[nk{n, ekey(ev)}]
			if acked[i] && got != 1 {
				t.Errorf("acked event %d delivered %d times to interested node %d, want exactly 1", i, got, n)
			}
			if !acked[i] && got > 1 {
				t.Errorf("unacked event %d delivered %d times to node %d", i, got, n)
			}
		}
	}
	for k, c := range o.all {
		if c > 1 {
			t.Errorf("node %d received %q %d times (dedup across failover failed)", k.node, k.ev, c)
		}
	}
}

// fastHealth opens the breaker quickly: three strikes inside tight
// windows, so leader death is declared in tens of milliseconds.
func fastHealth() health.Config {
	return health.Config{OpenTimeout: 10 * time.Second, CheckInterval: 5 * time.Millisecond}
}

func noAutoCkpt(crash *faults.CrashInjector) durable.Options {
	return durable.Options{CheckpointRecords: -1, CheckpointInterval: -1, Crash: crash}
}

// pair is one replicated deployment under test.
type pair struct {
	t          *testing.T
	w          *workload.World
	cfg        core.Config
	seed       int64
	dirL, dirF string
	ln         net.Listener
	ldr        *Leader
	flw        *Follower
	o          *obs
}

type pairOpts struct {
	leaderDur   durable.Options
	followerDur durable.Options
	dialer      func(addr string) (net.Conn, error)
	ackTimeout  time.Duration
}

// startPair brings up leader + follower on loopback and waits for the
// follower to finish its initial catch-up.
func startPair(t *testing.T, seed int64, po pairOpts) *pair {
	t.Helper()
	p := &pair{
		t: t, seed: seed, cfg: core.Config{Groups: 25, CellBudget: 500},
		dirL: t.TempDir(), dirF: t.TempDir(), o: newObs(),
	}
	e, w := testEngine(t, p.cfg, seed)
	p.w = w
	if po.ackTimeout == 0 {
		po.ackTimeout = 5 * time.Second
	}
	ldr, err := OpenLeader(p.dirL, e, LeaderConfig{
		AckTimeout: po.ackTimeout, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: po.leaderDur,
	}, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatal(err)
	}
	p.ldr = ldr
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.ln = ln
	go ldr.Serve(ln)
	flw, err := StartFollower(FollowerConfig{
		Dir: p.dirF, Base: baseOf(w), Addr: ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond, Dialer: po.dialer,
		Durable: po.followerDur,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.flw = flw
	t.Cleanup(func() {
		flw.Close()
		ldr.Close()
		ln.Close()
	})
	waitFor(t, 5*time.Second, "initial catch-up", flw.Synced)
	return p
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// publishUntilCrash publishes evs through the leader, recording acks,
// until a crash fires; returns the count attempted.
func publishUntilCrash(t *testing.T, ldr *Leader, evs []workload.Event, acked []bool) int {
	t.Helper()
	for i := range evs {
		_, err := ldr.DecideSeq(evs[i])
		switch {
		case err == nil:
			acked[i] = true
		case errors.Is(err, faults.ErrCrashed):
			return i + 1
		default:
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	return len(evs)
}

// ---- basic replication --------------------------------------------------

func TestPairReplicatesInSync(t *testing.T) {
	p := startPair(t, 501, pairOpts{leaderDur: noAutoCkpt(nil)})
	evs := p.w.Events(120, p.seed+10)
	acked := make([]bool, len(evs))
	for i := range evs {
		if _, err := p.ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		acked[i] = true
	}
	if p.ldr.Solo() {
		t.Error("leader went solo with a healthy follower")
	}
	st := p.ldr.Stats()
	if st.Acked == 0 || st.RecordsShipped == 0 {
		t.Errorf("no replication progress: %+v", st)
	}
	if p.flw.Applied() == 0 {
		t.Error("follower applied no records")
	}
	// Synchronous barrier: once every publish acked, the follower holds
	// every record (publishes AND delivery acks flow through Barrier).
	if !p.flw.Synced() {
		t.Error("follower not in sync after synchronous publishes")
	}
	p.ldr.Close() // drains in-flight deliveries (and their acks) through the live session
	p.flw.Close()
	checkOracle(t, p.w, evs, acked, p.o)
}

// TestCheckpointShipsToFollower drives enough traffic through automatic
// checkpointing that rotation and install markers cross the wire, then
// proves the follower's directory recovers cleanly.
func TestCheckpointShipsToFollower(t *testing.T) {
	p := startPair(t, 511, pairOpts{leaderDur: noAutoCkpt(nil)})
	evs := p.w.Events(150, p.seed+10)
	acked := make([]bool, len(evs))
	for i := range evs {
		if i == 75 {
			if err := p.ldr.Broker().Checkpoint(); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
		if _, err := p.ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		acked[i] = true
	}
	waitFor(t, 5*time.Second, "checkpoint install to reach follower", func() bool {
		return p.flw.rep.Epoch() > 1
	})
	// Promote and verify the mirrored state is a valid recovery source.
	// Leader first: its drain ships every pending delivery ack through
	// the still-open session before the standby stops applying.
	p.ldr.Close()
	p.flw.Close()
	e2, _ := testEngine(t, p.cfg, p.seed)
	b2, err := broker.Open(p.dirF, e2, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatalf("promoting mirrored directory: %v", err)
	}
	rec := b2.Recovery()
	b2.Close()
	if !rec.CheckpointLoaded {
		t.Error("follower mirror recovered without the shipped checkpoint")
	}
	checkOracle(t, p.w, evs, acked, p.o)
}

// TestShippedCheckpointNotRetained pins that the leader lets go of a
// checkpoint once it has shipped it. With no record after the checkpoint
// no later ack arrives to prune its marker, and neither the marker nor an
// emptied buffer's old array may keep the encoded checkpoint reachable:
// on a quiet leader it would stay live until the next publish.
func TestShippedCheckpointNotRetained(t *testing.T) {
	p := startPair(t, 531, pairOpts{leaderDur: noAutoCkpt(nil)})
	if err := p.ldr.Broker().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	freed := tapTrackedCheckpoint(t, p)
	waitFor(t, 5*time.Second, "the checkpoint marker to ship and leave the buffer", func() bool {
		p.ldr.mu.Lock()
		defer p.ldr.mu.Unlock()
		return len(p.ldr.buf) == 0
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the leader still holds a shipped checkpoint")
		}
	}
}

// tapTrackedCheckpoint feeds the leader's tap a copy of the checkpoint it
// just committed, as the store does on every commit, and returns a channel
// closed once the garbage collector frees that copy.
func tapTrackedCheckpoint(t *testing.T, p *pair) <-chan struct{} {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(p.dirL, "checkpoint.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	epoch, _, err := durable.DecodeCheckpointMeta(raw)
	if err != nil {
		t.Fatal(err)
	}
	arr := new([1 << 12]byte)
	if len(raw) > len(arr) {
		t.Fatalf("checkpoint of %d bytes does not fit the tracked array", len(raw))
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(arr, func(*[1 << 12]byte) { close(freed) })
	p.ldr.tapCheckpoint(epoch, arr[:copy(arr[:], raw)])
	return freed
}

// TestLeaderSoloWhenFollowerSilent pins the availability choice: a
// follower that stops acking is dropped at AckTimeout and the leader
// keeps serving alone.
func TestLeaderSoloWhenFollowerSilent(t *testing.T) {
	p := startPair(t, 521, pairOpts{
		leaderDur:  noAutoCkpt(nil),
		ackTimeout: 150 * time.Millisecond,
		followerDur: durable.Options{
			Crash: faults.NewCrashInjector(faults.CrashPlan{AtAppend: 40, Point: faults.CrashBeforeAppend}),
		},
	})
	evs := p.w.Events(100, p.seed+10)
	for i := range evs {
		if _, err := p.ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	waitFor(t, 5*time.Second, "leader to drop the dead follower", p.ldr.Solo)
	if !p.flw.Crashed() {
		t.Error("follower injector never fired")
	}
}

// TestBarrierTimeoutDropsHungFollower connects a fake follower that
// completes the handshake but never acknowledges anything: the publish
// barrier must release at AckTimeout by declaring it dead (SoloDrops).
func TestBarrierTimeoutDropsHungFollower(t *testing.T) {
	p := startPair(t, 561, pairOpts{leaderDur: noAutoCkpt(nil), ackTimeout: 150 * time.Millisecond})
	// Replace the real follower with a mute one: close the real follower,
	// then dial in, handshake, and swallow frames without acking.
	p.flw.Close()
	// Wait until the leader has noticed the loss (gone solo) before the
	// mute follower dials in — otherwise the attach check below can see
	// the not-yet-reaped real session.
	waitFor(t, 5*time.Second, "real follower to detach", func() bool { return p.ldr.Solo() })
	conn, err := net.Dial("tcp", p.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	w := wire.NewWriter(conn, wire.DefaultMaxFrame)
	if err := writeFrame(w, wire.AppendReplHello(nil, wire.ReplHello{Version: wire.Version, Term: 1})); err != nil {
		t.Fatal(err)
	}
	go func() { // drain so TCP backpressure never stalls the leader
		buf := make([]byte, 32<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	waitFor(t, 5*time.Second, "mute session to attach", func() bool { return !p.ldr.Solo() })
	start := time.Now()
	if _, err := p.ldr.DecideSeq(p.w.Events(1, p.seed+10)[0]); err != nil {
		t.Fatalf("publish against mute follower: %v", err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Errorf("barrier released after %v, want ≈ AckTimeout (150ms)", d)
	}
	if !p.ldr.Solo() {
		t.Error("mute follower not dropped")
	}
	if got := p.ldr.Stats().SoloDrops; got == 0 {
		t.Error("SoloDrops = 0 after barrier timeout")
	}
}

// TestBarrierReleasesSoloTicketAfterDeath: a barrier reached after the
// leader died must still release a ticket appended while it ran solo and
// alive — a barrier at append time would have — but not one appended
// after death, nor one appended with a follower attached that never
// acknowledged it, even when a solo ticket follows it.
func TestBarrierReleasesSoloTicketAfterDeath(t *testing.T) {
	open := func() *Leader {
		e, _ := testEngine(t, core.Config{Groups: 25, CellBudget: 500}, 591)
		l, err := OpenLeader(t.TempDir(), e, LeaderConfig{
			AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
			Health: fastHealth(), Durable: noAutoCkpt(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	ack := func(l *Leader, seq int64) int64 {
		t.Helper()
		ticket, err := l.Broker().Store().AppendAcks(seq, []topology.NodeID{1})
		if err != nil {
			t.Fatal(err)
		}
		return ticket
	}

	l := open()
	solo := ack(l, 0)
	l.Kill()
	if err := l.Barrier(solo); err != nil {
		t.Errorf("Barrier(%d) on a solo ticket after Kill = %v, want nil", solo, err)
	}
	late := ack(l, 1)
	if err := l.Barrier(late); !errors.Is(err, faults.ErrCrashed) {
		t.Errorf("Barrier(%d) on a ticket appended after Kill = %v, want ErrCrashed", late, err)
	}

	// A mute follower: it takes the stream and never acknowledges.
	l = open()
	conn, peer := net.Pipe()
	go io.Copy(io.Discard, peer)
	go l.Accept(conn, wire.NewReader(conn, wire.DefaultMaxFrame), wire.NewWriter(conn, wire.DefaultMaxFrame),
		wire.ReplHello{Version: wire.Version, Term: 1})
	waitFor(t, 5*time.Second, "mute session to attach", func() bool { return !l.Solo() })
	shipped := ack(l, 0)
	peer.Close()
	waitFor(t, 5*time.Second, "mute session to drop", l.Solo)
	solo = ack(l, 1)
	l.Kill()
	if err := l.Barrier(solo); !errors.Is(err, faults.ErrCrashed) {
		t.Errorf("Barrier(%d) over unacknowledged session ticket %d after Kill = %v, want ErrCrashed", solo, shipped, err)
	}
}

// TestFencingRejectsStaleLeader promotes the follower while the leader is
// still alive and talking (a split-brain window): the ex-leader must
// learn the higher epoch from its own stream and refuse further writes.
func TestFencingRejectsStaleLeader(t *testing.T) {
	p := startPair(t, 531, pairOpts{leaderDur: noAutoCkpt(nil)})
	evs := p.w.Events(60, p.seed+10)
	for i := range evs[:30] {
		if _, err := p.ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	if p.ldr.Term() != 1 || p.flw.Term() != 1 {
		t.Fatalf("terms = %d/%d, want 1/1", p.ldr.Term(), p.flw.Term())
	}
	// Promote with the connection still up: no oracle here — with two
	// live "leaders" a pair cannot prevent divergence, only fence it.
	e2, _ := testEngine(t, p.cfg, p.seed)
	b2, err := p.flw.Promote(e2, broker.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	if got := p.flw.Term(); got != 2 {
		t.Errorf("promoted term = %d, want 2", got)
	}
	if got, err := durable.LoadEpoch(p.dirF); err != nil || got != 2 {
		t.Errorf("persisted epoch = %d (%v), want 2", got, err)
	}

	// The ex-leader's next frames (heartbeats, or the publishes below)
	// draw Epoch replies; soon every write fails with ErrFenced.
	deadline := time.Now().Add(5 * time.Second)
	fenced := false
	for time.Now().Before(deadline) {
		_, err := p.ldr.DecideSeq(evs[30])
		if errors.Is(err, ErrFenced) {
			fenced = true
			break
		}
		if err != nil && !errors.Is(err, ErrFenced) {
			t.Fatalf("unexpected publish error while awaiting fence: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !fenced {
		t.Fatal("stale leader never fenced")
	}
	if !p.ldr.Fenced() || p.ldr.Term() != 2 {
		t.Errorf("Fenced=%v Term=%d, want fenced at term 2", p.ldr.Fenced(), p.ldr.Term())
	}
	if got, err := durable.LoadEpoch(p.dirL); err != nil || got != 2 {
		t.Errorf("ex-leader persisted epoch = %d (%v), want 2", got, err)
	}
	// The promoted broker serves writes.
	if err := b2.Publish(evs[31]); err != nil {
		t.Errorf("promoted broker rejected a publish: %v", err)
	}
}

// TestStaleLeaderRejoinsAsFollower wires the full rejoin arc: leader dies,
// follower promotes to a leader (term 2), the ex-leader restarts as a
// follower with its stale directory and must adopt the higher epoch and
// resync from scratch.
func TestStaleLeaderRejoinsAsFollower(t *testing.T) {
	crash := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 100, Point: faults.CrashAfterAppend})
	p := startPair(t, 541, pairOpts{leaderDur: noAutoCkpt(crash)})
	evs := p.w.Events(120, p.seed+10)
	acked := make([]bool, len(evs))
	n := publishUntilCrash(t, p.ldr, evs, acked)
	if n == len(evs) && !crash.Dead() {
		t.Fatal("crash plan never fired")
	}
	<-p.flw.LeaderDead()

	// Promote to a full leader so the ex-leader can rejoin under it.
	e2, _ := testEngine(t, p.cfg, p.seed)
	ldr2, err := p.flw.PromoteLeader(e2, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatal(err)
	}
	defer ldr2.Close()
	if ldr2.Term() != 2 {
		t.Fatalf("promoted leader term = %d, want 2", ldr2.Term())
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go ldr2.Serve(ln2)

	// Finish the traffic on the new leader (crashed publish not retried —
	// its ack never came, so ≤1 is the contract).
	for i := n; i < len(evs); i++ {
		if _, err := ldr2.DecideSeq(evs[i]); err != nil {
			t.Fatalf("post-failover publish %d: %v", i, err)
		}
		acked[i] = true
	}

	// Ex-leader rejoins as follower over its stale directory (term 1 on
	// disk, orphaned records in its journal): full resync must wipe both.
	flw2, err := StartFollower(FollowerConfig{
		Dir: p.dirL, Base: baseOf(p.w), Addr: ln2.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flw2.Close()
	waitFor(t, 5*time.Second, "ex-leader resync", flw2.Synced)
	if got := flw2.Term(); got != 2 {
		t.Errorf("rejoined follower term = %d, want 2", got)
	}
	if got, err := durable.LoadEpoch(p.dirL); err != nil || got != 2 {
		t.Errorf("rejoined follower persisted epoch = %d (%v), want 2", got, err)
	}
	// And the pair keeps working: a fresh publish through the new leader
	// replicates to the rejoined standby.
	fresh := p.w.Events(1, p.seed+99)[0]
	before := flw2.Watermark()
	if _, err := ldr2.DecideSeq(fresh); err != nil {
		t.Fatalf("publish after rejoin: %v", err)
	}
	if flw2.Watermark() <= before {
		t.Error("rejoined standby watermark did not advance on a synchronous publish")
	}
	flw2.Close()
	ldr2.Close() // drain before the oracle reads
	checkOracle(t, p.w, evs, acked, p.o)
}

// TestNoPromotionOverPartialResync pins the promotion gate across
// reconnects: once a reconnect's catch-up has wiped the mirror, a leader
// lost mid-resync must NOT be declared dead — the directory is partially
// re-seeded, and promoting over it would lose acknowledged publishes.
// The gate re-arms once a later resync completes.
func TestNoPromotionOverPartialResync(t *testing.T) {
	seed := int64(571)
	cfg := core.Config{Groups: 25, CellBudget: 500}
	e, w := testEngine(t, cfg, seed)
	ldr, err := OpenLeader(t.TempDir(), e, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ldr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ldr.Serve(ln)

	// A backlog so the second catch-up below has far more than 4 KiB to
	// stream when it is cut.
	evs := w.Events(100, seed+10)
	for i := range evs[:80] {
		if _, err := ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("solo publish %d: %v", i, err)
		}
	}

	// Connection plan: #1 syncs cleanly, #2 is cut 4 KiB in (after the
	// catch-up preamble has wiped the mirror, long before the backlog fits
	// through), and every later dial fails until the test heals the net.
	ci, err := faults.NewConnInjector(faults.ConnConfig{Seed: seed, CutAfterBytes: []int64{0, 4 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	dials, healed := 0, false
	flw, err := StartFollower(FollowerConfig{
		Dir: t.TempDir(), Base: baseOf(w), Addr: ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			mu.Lock()
			n := dials
			dials++
			ok := healed || n < 2
			mu.Unlock()
			if !ok {
				return nil, errors.New("injected dial failure")
			}
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			wc := ci.Wrap(c)
			mu.Lock()
			conns = append(conns, wc)
			mu.Unlock()
			return wc, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flw.Close()
	waitFor(t, 10*time.Second, "initial catch-up", flw.Synced)

	// Sever session 1: the reconnect starts catch-up 2, which resets the
	// replica and dies mid-stream; the dial failures then open the breaker
	// with the mirror partially re-seeded.
	mu.Lock()
	c1 := conns[0]
	mu.Unlock()
	c1.Close()
	select {
	case <-flw.LeaderDead():
		t.Fatal("leader declared dead over a partially re-seeded mirror")
	case <-time.After(400 * time.Millisecond):
	}

	// Heal the network: the follower resyncs from scratch, re-arming the
	// gate; a real leader death must then be declared.
	mu.Lock()
	healed = true
	mu.Unlock()
	waitFor(t, 10*time.Second, "resync after heal", flw.Synced)
	ldr.Kill()
	ln.Close()
	select {
	case <-flw.LeaderDead():
	case <-time.After(5 * time.Second):
		t.Fatal("leader death not declared after the resync completed")
	}
}

// slowConn throttles reads to chunk bytes per delay tick, stretching a
// catch-up stream long past the leader's AckTimeout.
type slowConn struct {
	net.Conn
	chunk int
	delay time.Duration
}

func (c *slowConn) Read(p []byte) (int, error) {
	time.Sleep(c.delay)
	if len(p) > c.chunk {
		p = p[:c.chunk]
	}
	return c.Conn.Read(p)
}

// TestBarrierExtendsDuringSlowCatchup pins the resync-livelock fix: a
// publish barrier must not sever a follower session that is still
// mid-catch-up (the follower cannot ack new tickets until the resync
// completes) while catch-up traffic keeps flowing. Severing it restarts
// the resync from scratch, so under steady publish load a pair whose
// resync outlasts AckTimeout would livelock in perpetual catch-up.
func TestBarrierExtendsDuringSlowCatchup(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-catch-up regression is timing heavy; run without -short")
	}
	seed := int64(581)
	cfg := core.Config{Groups: 25, CellBudget: 500}
	e, w := testEngine(t, cfg, seed)
	ldr, err := OpenLeader(t.TempDir(), e, LeaderConfig{
		AckTimeout: 200 * time.Millisecond, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ldr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ldr.Serve(ln)

	// A backlog that takes several AckTimeouts to fit through the
	// throttled link below (~250 KB/s).
	evs := w.Events(220, seed+10)
	for i := range evs[:200] {
		if _, err := ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("solo publish %d: %v", i, err)
		}
	}

	flw, err := StartFollower(FollowerConfig{
		Dir: t.TempDir(), Base: baseOf(w), Addr: ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 500 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &slowConn{Conn: c, chunk: 512, delay: 2 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flw.Close()

	// Publish the moment the session attaches — mid-catch-up, with the
	// resync still far from done. The barrier must wait it out.
	waitFor(t, 5*time.Second, "session attach", func() bool { return !ldr.Solo() })
	if _, err := ldr.DecideSeq(evs[200]); err != nil {
		t.Fatalf("publish during catch-up: %v", err)
	}
	waitFor(t, 30*time.Second, "slow resync", flw.Synced)
	st := ldr.Stats()
	if st.SoloDrops != 0 {
		t.Errorf("SoloDrops = %d: barrier severed a live mid-catch-up session", st.SoloDrops)
	}
	if st.Resyncs != 1 {
		t.Errorf("Resyncs = %d, want 1 (a severed catch-up restarts the resync)", st.Resyncs)
	}
}

// TestFenceFailsClosedWhenEpochPersistFails pins the fence durability
// contract: when the higher epoch cannot be persisted, the leader must
// fail closed (ErrCrashed) rather than advertise ErrFenced — a publisher
// seeing ErrFenced may rely on the epoch being on disk, and a restarted
// leader that forgot the fence would reopen the split-brain window.
func TestFenceFailsClosedWhenEpochPersistFails(t *testing.T) {
	seed := int64(591)
	cfg := core.Config{Groups: 25, CellBudget: 500}
	e, w := testEngine(t, cfg, seed)
	epochDir := filepath.Join(t.TempDir(), "epochs")
	ldr, err := OpenLeader(t.TempDir(), e, LeaderConfig{
		AckTimeout: time.Second, Heartbeat: 10 * time.Millisecond,
		EpochDir: epochDir, Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ldr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ldr.Serve(ln)
	evs := w.Events(2, seed+10)
	if _, err := ldr.DecideSeq(evs[0]); err != nil {
		t.Fatalf("healthy solo publish: %v", err)
	}

	// Sabotage the epoch directory: a plain file in its place makes
	// StoreEpoch's MkdirAll fail on the next fence.
	if err := os.RemoveAll(epochDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(epochDir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A promoted node dials in with a higher term, triggering the fence.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := wire.NewWriter(conn, wire.DefaultMaxFrame)
	if err := writeFrame(fw, wire.AppendReplHello(nil, wire.ReplHello{Version: wire.Version, Term: 7})); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := ldr.DecideSeq(evs[1])
		if errors.Is(err, faults.ErrCrashed) {
			break
		}
		if errors.Is(err, ErrFenced) {
			t.Fatal("leader advertised ErrFenced without a durable epoch")
		}
		if err != nil {
			t.Fatalf("unexpected publish error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("leader never reacted to the higher epoch")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ldr.Fenced() {
		t.Error("Fenced() = true though the epoch persist failed")
	}
}

// TestShardContract pins that the leader is a broker.Shard serving
// writes through its broker.
func TestShardContract(t *testing.T) {
	p := startPair(t, 551, pairOpts{leaderDur: noAutoCkpt(nil)})
	var _ broker.Shard = p.ldr
	if _, err := p.ldr.DecideSeq(p.w.Events(1, 1)[0]); err != nil {
		t.Errorf("leader DecideSeq = %v", err)
	}
	waitFor(t, 5*time.Second, "published counter", func() bool { return p.ldr.Broker().Stats().Published > 0 })
	slot, err := p.ldr.Subscribe(p.w.Subs[0])
	if err != nil {
		t.Fatalf("leader Subscribe = %v", err)
	}
	if err := p.ldr.Unsubscribe(slot); err != nil {
		t.Errorf("leader Unsubscribe = %v", err)
	}
}
