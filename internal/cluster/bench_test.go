package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/space"
)

// benchInput builds a deterministic clustering problem with n hyper-cells
// over ns subscribers arranged in blocks: each cell samples a majority of
// its block's subscribers plus a little cross-block noise, so distances are
// non-trivial and no two cells coalesce. The same generator produced the
// rows of BENCH_cluster.json, a frozen history that is no longer appended
// to; keep its shape so a run stays comparable with those rows.
func benchInput(n, ns, blocks int) *Input {
	r := rand.New(rand.NewSource(42))
	per := ns / blocks
	in := &Input{NumSubscribers: ns, TotalHyperCells: n}
	for i := 0; i < n; i++ {
		blk := i % blocks
		m := bitset.New(ns)
		for s := 0; s < per; s++ {
			if r.Float64() < 0.6 {
				m.Set(blk*per + s)
			}
		}
		for j := 0; j < 20; j++ {
			m.Set(r.Intn(ns))
		}
		in.Cells = append(in.Cells, HyperCell{
			Cells:   []space.CellID{space.CellID(i)},
			Members: m,
			Prob:    0.0001 + 0.001*r.Float64(),
		})
	}
	sortByRating(in)
	return in
}

// benchIn caches the headline benchmark problem: n ≥ 1000 hyper-cells over
// ns ≥ 5000 subscribers (the acceptance shape for the perf trajectory).
var benchIn *Input

func getBenchInput(b *testing.B) *Input {
	b.Helper()
	if benchIn == nil {
		benchIn = benchInput(1200, 6000, 50)
	}
	return benchIn
}

// BenchmarkPairwiseExact is a perf-trajectory headline: exact agglomerative
// pairwise grouping, dominated by the O(n²) distance-matrix seed plus the
// per-merge row recomputes.
func BenchmarkPairwiseExact(b *testing.B) {
	in := getBenchInput(b)
	alg := &Pairwise{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(in, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForgy is a perf-trajectory headline: Forgy K-means, dominated by
// the frozen-vector assignment passes (n·K distance scans per iteration).
func BenchmarkForgy(b *testing.B) {
	in := getBenchInput(b)
	alg := &KMeans{Variant: Forgy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(in, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMacQueen tracks the incremental K-means variant.
func BenchmarkMacQueen(b *testing.B) {
	in := getBenchInput(b)
	alg := &KMeans{Variant: MacQueen}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(in, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSTCluster tracks Prim over the implicit complete graph.
func BenchmarkMSTCluster(b *testing.B) {
	in := getBenchInput(b)
	alg := MST{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(in, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseApprox tracks the secretary-rule variant.
func BenchmarkPairwiseApprox(b *testing.B) {
	in := getBenchInput(b)
	alg := &Pairwise{Approx: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alg.Cluster(in, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForgyWorkers sweeps the worker count on the Forgy assignment
// passes. On a single-core machine the sub-benchmarks mostly measure the
// sharding overhead; with more cores they show the parallel speedup.
func BenchmarkForgyWorkers(b *testing.B) {
	in := getBenchInput(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			alg := &KMeans{Variant: Forgy, Parallelism: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Cluster(in, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairwiseExactWorkers sweeps the worker count on the O(n²)
// distance-matrix build and the row refreshes.
func BenchmarkPairwiseExactWorkers(b *testing.B) {
	in := getBenchInput(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			alg := &Pairwise{Parallelism: w}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Cluster(in, 50); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
