package federate

import (
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/replicate"
	"repro/internal/space"
	"repro/internal/workload"
)

// TestFederationChaosExactlyOnce is the federation chaos matrix in one
// deployment: a 4-shard federation whose shard 0 is a replicated pair,
// a concurrent publish storm, subscription churn racing the publishes,
// boundary-straddling churn subscriptions — and a hard kill of the pair
// leader mid-storm with an automatic promotion the router must chase.
// The brute-force oracle over the full world then asserts exactly-once:
// every acked event delivered exactly once per interested node, zero
// duplicates anywhere, across both shard-0 incarnations.
func TestFederationChaosExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm in -short mode")
	}
	w := stockWorld(t, 841)
	train := w.Events(800, 843)
	tiles, err := Derive(w, train, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := newFedObs()
	var promoted atomic.Value // broker.Shard, set once the standby is up
	r, err := NewRouter(Config{
		Tiles:        tiles,
		Observer:     o.cb(),
		RetryBackoff: time.Millisecond,
		Resolve: func(i int) broker.Shard {
			if i != 0 {
				return nil
			}
			if s, ok := promoted.Load().(broker.Shard); ok {
				return s
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Shard 0: a replicated pair whose leader's store dies mid-storm.
	// The crash injector models PROCESS death (store frozen, every
	// subsequent decide ErrCrashed) — not a network partition: a severed
	// but live ex-leader would keep acking solo under sequence numbers
	// the promoted mirror reuses, which no router can disambiguate.
	// The promotion engine is built up front from the same deterministic
	// inputs, so the promote goroutine does no fallible work beyond
	// Promote itself.
	crash := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 120, Point: faults.CrashAfterAppend})
	e0, tw0 := tileEngine(t, w, tiles[0], train)
	e0b, _ := tileEngine(t, w, tiles[0], train)
	dirL, dirF := t.TempDir(), t.TempDir()
	ldr, err := replicate.OpenLeader(dirL, e0, replicate.LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health:  fastHealth(),
		Durable: durable.Options{CheckpointRecords: -1, CheckpointInterval: -1, Crash: crash},
	}, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(0)))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ldr.Serve(ln)
	flw, err := replicate.StartFollower(replicate.FollowerConfig{
		Dir: dirF, Base: durable.BaseInfo{Hash: durable.HashBase(tw0.Subs), Count: int64(len(tw0.Subs))},
		Addr: ln.Addr().String(), Health: fastHealth(),
		ReadTimeout: 200 * time.Millisecond, Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		flw.Close()
		ldr.Close()
		ln.Close()
	})
	if err := r.Attach(0, ldr); err != nil {
		t.Fatal(err)
	}
	// Shards 1..3: plain in-process brokers over their tile worlds.
	for i := 1; i < len(tiles); i++ {
		e, _ := tileEngine(t, w, tiles[i], train)
		b, err := broker.New(e, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Attach(i, b); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { r.Close() })
	waitFor(t, 5*time.Second, "initial catch-up", flw.Synced)

	// Churn rectangles: small straddlers covering ≥ 2 tiles but NOT the
	// replicated shard 0 — slot numbers can be remapped when a durable
	// mirror recovers, so live (shard, slot) refs into the pre-failover
	// incarnation do not survive promotion (a production controller
	// re-registers; the router's ID table is incarnation-scoped).
	rng := rand.New(rand.NewSource(845))
	var churnRects []space.Rect
	var cover []int
	for len(churnRects) < 8 {
		ev := train[rng.Intn(len(train))]
		rect := make(space.Rect, w.Dim)
		for d := range rect {
			rect[d] = space.Interval{Lo: ev.Point[d] - 0.05, Hi: ev.Point[d] + 0.05}
		}
		cover = tiles.Covering(cover[:0], rect)
		touches0 := false
		for _, c := range cover {
			if c == 0 {
				touches0 = true
			}
		}
		if len(cover) >= 2 && !touches0 {
			churnRects = append(churnRects, rect)
		}
	}

	evs := w.Events(600, 847)
	acked := make([]bool, len(evs))
	var wg sync.WaitGroup

	// Two concurrent publishers so the leader crash lands mid-storm.
	publish := func(lo, hi int) {
		defer wg.Done()
		for i := lo; i < hi; i++ {
			if err := r.Publish(evs[i]); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
			acked[i] = true
		}
	}
	wg.Add(2)
	go publish(0, len(evs)/2)
	go publish(len(evs)/2, len(evs))

	// Churn racing the publishes: ≥ 100 subscribe/unsubscribe cycles, each
	// a pair of decision-snapshot swaps on every covered shard.
	churn := make(chan int, 1)
	go func() {
		n := 0
		for n < 100 {
			rect := churnRects[n%len(churnRects)]
			id, err := r.Subscribe(workload.Subscription{Owner: 500, Rect: rect})
			if err != nil {
				t.Errorf("churn subscribe %d: %v", n, err)
				break
			}
			if err := r.Unsubscribe(id); err != nil {
				t.Errorf("churn unsubscribe %d: %v", n, err)
				break
			}
			n++
		}
		churn <- n
	}()

	// The failover: once the crash freezes the leader mid-storm, the
	// standby's breaker declares it dead; promote and let the router's
	// crashed-decide retries re-resolve to b2.
	promoter := make(chan struct{})
	go func() {
		defer close(promoter)
		<-flw.LeaderDead()
		b2, err := flw.Promote(e0b, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(0)))
		if err != nil {
			t.Errorf("promote: %v", err)
			return
		}
		promoted.Store(broker.Shard(b2))
	}()

	wg.Wait()
	<-promoter
	if !crash.Dead() {
		t.Error("crash plan never fired; the storm missed shard 0 entirely")
	}
	if n := <-churn; n < 100 {
		t.Errorf("churn completed %d cycles, want ≥ 100", n)
	}
	if _, ok := promoted.Load().(broker.Shard); !ok {
		t.Fatal("standby never promoted")
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Error("storm crossed a leader kill without a single router retry")
	}
	if st.Resolves == 0 {
		t.Error("router never re-resolved shard 0 to the promoted standby")
	}
	if err := r.Close(); err != nil { // drains shards 1..3 and b2
		t.Fatal(err)
	}
	ldr.Close() // already killed; releases resources
	checkExactlyOnce(t, w, evs, acked, o, r)
	t.Logf("chaos stats: %+v", st)
}
