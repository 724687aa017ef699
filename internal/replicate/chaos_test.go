package replicate

import (
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
)

// This file is the failover chaos suite: every scenario kills a replica
// pair at an injected crash point and proves the exactly-once contract
// against the brute-force interest oracle across however many
// incarnations it takes to finish the traffic.
//
// The determinism argument, point by point:
//
//   - CrashBeforeAppend / CrashTornAppend on the leader: the dying record
//     never (validly) reaches either disk, the publish is unacked, ≤1
//     delivery is the contract.
//   - CrashAfterAppend on the leader: the record is on the leader's disk
//     but never reached the tap, so the promoted follower — now the
//     authority — redelivers; the single-node output-commit window does
//     not exist for a promoted pair.
//   - Copies dropped unobserved at the dying leader (ack barrier returned
//     ErrCrashed): the drain-then-kill teardown guarantees their acks
//     never reached the follower, so promotion redelivers them exactly
//     once.

// runFailover crashes the leader at the given plan, promotes the
// follower, finishes the traffic on the promoted broker, and runs the
// oracle across both incarnations.
func runFailover(t *testing.T, seed int64, plan faults.CrashPlan, midCkpt bool) {
	t.Helper()
	crash := faults.NewCrashInjector(plan)
	p := startPair(t, seed, pairOpts{leaderDur: noAutoCkpt(crash)})
	evs := p.w.Events(120, p.seed+10)
	acked := make([]bool, len(evs))

	n := 0
	if midCkpt {
		// Publish a prefix, then die inside the checkpoint commit: the
		// follower holds the rotation marker but no install.
		for ; n < 30; n++ {
			if _, err := p.ldr.DecideSeq(evs[n]); err != nil {
				t.Fatalf("publish %d: %v", n, err)
			}
			acked[n] = true
		}
		if err := p.ldr.Checkpoint(); !errors.Is(err, faults.ErrCrashed) {
			t.Fatalf("mid-checkpoint crash: err = %v, want ErrCrashed", err)
		}
	} else {
		n = publishUntilCrash(t, p.ldr, evs, acked)
		if !crash.Dead() {
			t.Fatal("crash plan never fired")
		}
	}

	<-p.flw.LeaderDead()
	e2, _ := testEngine(t, p.cfg, p.seed)
	b2, err := p.flw.Promote(e2, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	for i := n; i < len(evs); i++ {
		if err := b2.Publish(evs[i]); err != nil {
			t.Fatalf("post-failover publish %d: %v", i, err)
		}
		acked[i] = true
	}
	b2.Close() // drain redelivery + fresh traffic before the oracle reads
	checkOracle(t, p.w, evs, acked, p.o)
}

func TestFailoverExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos suite is slow; run without -short")
	}
	points := []faults.CrashPoint{
		faults.CrashBeforeAppend, faults.CrashAfterAppend, faults.CrashTornAppend,
	}
	for i, pt := range points {
		t.Run(pt.String(), func(t *testing.T) {
			// ~13 appends per publish (1 record + its delivery acks), so
			// append 150 lands mid-traffic with deliveries in flight.
			runFailover(t, 601+int64(i)*10, faults.CrashPlan{AtAppend: 150, Point: pt}, false)
		})
	}
	t.Run(faults.CrashMidCheckpoint.String(), func(t *testing.T) {
		runFailover(t, 641, faults.CrashPlan{Point: faults.CrashMidCheckpoint}, true)
	})
}

// TestFailoverDuringCatchup cuts the follower's very first connection
// mid-catch-up (a scheduled mid-stream reset), lets the retry resync from
// scratch, and then proves the mirrored directory is a complete recovery
// source.
func TestFailoverDuringCatchup(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos suite is slow; run without -short")
	}
	seed := int64(651)
	cfg := core.Config{Groups: 25, CellBudget: 500}
	dirL, dirF := t.TempDir(), t.TempDir()
	o := newObs()
	e, w := testEngine(t, cfg, seed)
	ldr, err := OpenLeader(dirL, e, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2), o.observer())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go ldr.Serve(ln)

	// Build up a journal worth catching up on before any follower exists.
	evs := w.Events(120, seed+10)
	acked := make([]bool, len(evs))
	for i := range evs[:80] {
		if _, err := ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("solo publish %d: %v", i, err)
		}
		acked[i] = true
	}

	// First connection dies after 8 KiB — mid-catch-up, long before the
	// ~80-publish backlog fits through. Later connections are never cut.
	ci, err := faults.NewConnInjector(faults.ConnConfig{Seed: seed, CutAfterBytes: []int64{8 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	flw, err := StartFollower(FollowerConfig{
		Dir: dirF, Base: baseOf(w), Addr: ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return ci.Wrap(c), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "resync after mid-catch-up cut", flw.Synced)
	if got := ldr.Stats().Resyncs; got < 2 {
		t.Errorf("Resyncs = %d, want ≥ 2 (cut catch-up plus the retry)", got)
	}

	// Live traffic replicates after the wound heals.
	for i := 80; i < len(evs); i++ {
		if _, err := ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("post-resync publish %d: %v", i, err)
		}
		acked[i] = true
	}
	ldr.Close() // leader first: drains delivery acks through the live session
	flw.Close()

	// The mirror must now be a complete recovery source on its own.
	e2, _ := testEngine(t, cfg, seed)
	b2, err := broker.Open(dirF, e2, broker.WithWorkers(2), o.observer())
	if err != nil {
		t.Fatalf("promoting mirrored directory: %v", err)
	}
	b2.Close()
	checkOracle(t, w, evs, acked, o)
}

// TestFollowerCrashResyncFromScratch crashes the follower's replica store
// mid-catch-up, then starts a fresh follower over the same directory: the
// full-resync protocol must wipe the half-applied state and converge.
func TestFollowerCrashResyncFromScratch(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos suite is slow; run without -short")
	}
	p := startPair(t, 661, pairOpts{leaderDur: noAutoCkpt(nil)})
	evs := p.w.Events(60, p.seed+10)
	for i := range evs[:30] {
		if _, err := p.ldr.DecideSeq(evs[i]); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
	}
	p.flw.Close()

	// A second follower over a fresh dir dies 20 records into catch-up.
	dir2 := t.TempDir()
	flw2, err := StartFollower(FollowerConfig{
		Dir: dir2, Base: baseOf(p.w), Addr: p.ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
		Durable: durable.Options{Crash: faults.NewCrashInjector(
			faults.CrashPlan{AtAppend: 20, Point: faults.CrashTornAppend})},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "follower crash to fire", flw2.Crashed)
	flw2.Close()

	// Same directory, clean injector: Reset wipes the torn state.
	flw3, err := StartFollower(FollowerConfig{
		Dir: dir2, Base: baseOf(p.w), Addr: p.ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 200 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flw3.Close()
	waitFor(t, 10*time.Second, "resync over crashed directory", flw3.Synced)
	before := flw3.Watermark()
	if _, err := p.ldr.DecideSeq(evs[30]); err != nil {
		t.Fatalf("publish after resync: %v", err)
	}
	if flw3.Watermark() <= before {
		t.Error("watermark did not advance after resync")
	}
}

// TestCrashDuringFailover kills the leader, then kills the promoted
// follower mid-redelivery, and recovers a THIRD incarnation over the
// follower's directory: exactly-once must hold across all three.
func TestCrashDuringFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos suite is slow; run without -short")
	}
	crash1 := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 150, Point: faults.CrashAfterAppend})
	p := startPair(t, 671, pairOpts{leaderDur: noAutoCkpt(crash1)})
	evs := p.w.Events(120, p.seed+10)
	acked := make([]bool, len(evs))
	n := publishUntilCrash(t, p.ldr, evs, acked)
	if !crash1.Dead() {
		t.Fatal("first crash plan never fired")
	}
	<-p.flw.LeaderDead()

	// Incarnation 2: promoted, armed to die a few dozen appends in —
	// while recovery redelivery acks are still landing. Torn point: the
	// dying ack is invalid on disk, so incarnation 3 redelivers it.
	crash2 := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 40, Point: faults.CrashTornAppend})
	e2, _ := testEngine(t, p.cfg, p.seed)
	ldr2, err := p.flw.PromoteLeader(e2, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(crash2),
	}, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	m := n
	for ; m < len(evs); m++ {
		_, err := ldr2.DecideSeq(evs[m])
		if err == nil {
			acked[m] = true
			continue
		}
		if errors.Is(err, faults.ErrCrashed) {
			m++
			break
		}
		t.Fatalf("post-failover publish %d: %v", m, err)
	}
	if !crash2.Dead() {
		// Redelivery acks may have burned the budget before any publish.
		waitFor(t, 5*time.Second, "second crash to fire", crash2.Dead)
	}
	ldr2.Close() // dead store: error is expected, release the directory

	// Incarnation 3: plain crash-restart recovery over the mirror.
	e3, _ := testEngine(t, p.cfg, p.seed)
	b3, err := broker.Open(p.dirF, e3, broker.WithWorkers(2), p.o.observer())
	if err != nil {
		t.Fatalf("third incarnation: %v", err)
	}
	for i := m; i < len(evs); i++ {
		if err := b3.Publish(evs[i]); err != nil {
			t.Fatalf("third-incarnation publish %d: %v", i, err)
		}
		acked[i] = true
	}
	b3.Close()
	checkOracle(t, p.w, evs, acked, p.o)
}
