package federate

import (
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/topology"
	"repro/internal/workload"
)

// BenchmarkFederatePublishDeliver measures end-to-end publish→deliver
// latency through the router — routing, shard decide, merge, dedup
// — for a single-shard federation (the router as pure overhead over one
// broker) against a four-shard one (parallel per-tile decides, smaller
// per-shard match state). Each op publishes one event and waits for its
// first merged delivery, so the p50/p99 metrics are whole-path lags,
// comparable with BenchmarkReplicationLag's. Run it with
// go test -run '^$' -bench BenchmarkFederatePublishDeliver ./internal/federate/
func BenchmarkFederatePublishDeliver(b *testing.B) {
	// Sub-benchmark names avoid a trailing -N, which benchstat would strip
	// as a GOMAXPROCS suffix.
	b.Run("shards=1", func(b *testing.B) { benchFederate(b, 1) })
	b.Run("shards=4", func(b *testing.B) { benchFederate(b, 4) })
}

func benchFederate(b *testing.B, shards int) {
	w := stockWorld(b, 951)
	train := w.Events(800, 953)
	tiles, err := Derive(w, train, shards)
	if err != nil {
		b.Fatal(err)
	}

	// starts maps a global seq to its publish time; the observer signals
	// the first delivery of each event on firstCh. Exactly one publish is
	// outstanding at a time, so the channel never backs up.
	var mu sync.Mutex
	starts := map[int64]time.Time{}
	firstCh := make(chan time.Duration, 1)
	r, err := NewRouter(Config{
		Tiles: tiles,
		Observer: func(n topology.NodeID, d broker.Delivery) {
			mu.Lock()
			t0, ok := starts[d.Seq]
			if ok {
				delete(starts, d.Seq)
			}
			mu.Unlock()
			if ok {
				firstCh <- time.Since(t0)
			}
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i, tile := range tiles {
		e, _ := tileEngine(b, w, tile, train)
		bk, err := broker.New(e, broker.WithWorkers(2), broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Attach(i, bk); err != nil {
			b.Fatal(err)
		}
	}

	// Only events with at least one interested node terminate the
	// wait-for-first-delivery loop; filter the rest out up front.
	var evs []workload.Event
	for _, ev := range w.Events(4096, 955) {
		if len(interestedNodes(w, ev)) > 0 {
			evs = append(evs, ev)
		}
	}
	if len(evs) == 0 {
		b.Fatal("no deliverable events in the benchmark stream")
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := evs[i%len(evs)]
		mu.Lock()
		starts[int64(i)] = time.Now() // router seqs are dense from 0
		mu.Unlock()
		if _, err := r.PublishSeq(ev); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, <-firstCh)
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds())
	}
	b.ReportMetric(pct(0.50), "p50-e2e-ns")
	b.ReportMetric(pct(0.99), "p99-e2e-ns")
}
