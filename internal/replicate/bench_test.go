package replicate

import (
	"net"
	"sort"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/topology"
)

func benchWait(b *testing.B, what string, cond func() bool) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			b.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkReplicationLag measures the publish barrier with a live
// follower attached: each op is fsync-local + ship + fsync-remote + ack,
// so ns/op is the replicated publish latency and the reported p50/p99
// metrics are its distribution tails.
func BenchmarkReplicationLag(b *testing.B) {
	e, w := testEngine(b, core.Config{Groups: 25, CellBudget: 500}, 901)
	dirL, dirF := b.TempDir(), b.TempDir()
	ldr, err := OpenLeader(dirL, e, LeaderConfig{
		AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
		Health: fastHealth(), Durable: noAutoCkpt(nil),
	}, broker.WithWorkers(2))
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go ldr.Serve(ln)
	flw, err := StartFollower(FollowerConfig{
		Dir: dirF, Base: baseOf(w), Addr: ln.Addr().String(),
		Health: fastHealth(), ReadTimeout: 500 * time.Millisecond,
		Reconnect: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		flw.Close()
		ldr.Close()
		ln.Close()
	}()
	benchWait(b, "initial catch-up", flw.Synced)

	evs := w.Events(b.N, 903)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := ldr.DecideSeq(evs[i]); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	if ldr.Solo() {
		b.Fatal("follower dropped mid-benchmark: latencies are solo, not replicated")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-lag-ns")
	b.ReportMetric(pct(0.99), "p99-lag-ns")
}

// BenchmarkFailover measures the whole handover: leader killed without
// goodbye → follower's failure detector opens → promotion (epoch persist
// + crash-restart recovery) → first delivery served by the promoted
// broker. The mean is reported as failover-ns.
func BenchmarkFailover(b *testing.B) {
	cfg := core.Config{Groups: 25, CellBudget: 500}
	var total time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, w := testEngine(b, cfg, 911)
		dirL, dirF := b.TempDir(), b.TempDir()
		ldr, err := OpenLeader(dirL, e, LeaderConfig{
			AckTimeout: 5 * time.Second, Heartbeat: 10 * time.Millisecond,
			Health: fastHealth(), Durable: noAutoCkpt(nil),
		}, broker.WithWorkers(2))
		if err != nil {
			b.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go ldr.Serve(ln)
		flw, err := StartFollower(FollowerConfig{
			Dir: dirF, Base: baseOf(w), Addr: ln.Addr().String(),
			Health: fastHealth(), ReadTimeout: 50 * time.Millisecond,
			Reconnect: 10 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchWait(b, "initial catch-up", flw.Synced)
		for _, ev := range w.Events(50, 913) {
			if _, err := ldr.DecideSeq(ev); err != nil {
				b.Fatal(err)
			}
		}
		delivered := make(chan struct{}, 1)
		obsOpt := broker.WithObserver(func(topology.NodeID, broker.Delivery) {
			select {
			case delivered <- struct{}{}:
			default:
			}
		})
		e2, _ := testEngine(b, cfg, 911)

		b.StartTimer()
		t0 := time.Now()
		ldr.Kill()
		<-flw.LeaderDead()
		b2, err := flw.Promote(e2, broker.WithWorkers(2), obsOpt)
		if err != nil {
			b.Fatal(err)
		}
		// Recovery may redeliver outstanding publishes on its own; a fresh
		// publish guarantees at least one delivery arrives either way.
		for _, ev := range w.Events(10, 917) {
			if err := b2.Publish(ev); err != nil {
				b.Fatal(err)
			}
		}
		<-delivered
		total += time.Since(t0)
		b.StopTimer()

		b2.Close()
		flw.Close()
		ldr.Close()
		ln.Close()
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "failover-ns")
}
