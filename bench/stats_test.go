package main

import (
	"io"
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}, {99.9, 49.96},
	} {
		if got := percentile(s, c.p); !almost(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	v := []float64{3, 1, 2}
	if got := median(v); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if v[0] != 3 || v[1] != 1 || v[2] != 2 {
		t.Errorf("median reordered its input: %v", v)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints: the acceptance driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 35, 52.5},
	} {
		q1, q2, q3 := quartiles(c.v)
		if !almost(q1, c.q1) || !almost(q2, c.q2) || !almost(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// One stalled window moves one inner median, not the reported value.
func TestWindowMedianShrugsOffOneBadWindow(t *testing.T) {
	steady := func() []float64 { return []float64{900, 910, 905, 915, 895} }
	windows := [][]float64{steady(), steady(), {90000, 91000, 250000}, steady(), steady(), steady()}
	got, n := windowMedian(windows)
	if got != 905 {
		t.Errorf("windowMedian = %v, want 905", got)
	}
	if n != 28 {
		t.Errorf("sample count = %d, want 28", n)
	}
	// A plain median over all samples is also robust here; the mean is not —
	// the point of the estimator is that no single window can dominate.
	all := []float64{}
	for _, w := range windows {
		all = append(all, w...)
	}
	if m := mean(all); m < 10000 {
		t.Fatalf("test premise broken: mean %v should be dragged by the stall", m)
	}
	if got, n := windowMedian([][]float64{nil, {5}, nil}); got != 5 || n != 1 {
		t.Errorf("empty windows must be skipped: got %v over %d samples", got, n)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5}
	for _, c := range []struct {
		name  string
		b     []float64
		lower bool
		bound float64
		want  string
	}{
		{"same", []float64{100.2, 99.8, 101, 100, 99}, true, 0.10, verdictSame},
		{"worse by more than the bound", []float64{115, 116, 114, 115.5, 114.5}, true, 0.10, verdictWorse},
		{"worse but inside the bound", []float64{105, 106, 104, 105.5, 104.5}, true, 0.10, verdictSame},
		{"better is never worse", []float64{50, 51, 49, 50.5, 49.5}, true, 0.10, verdictSame},
		{"higher is better: a drop is worse", []float64{80, 81, 79, 80.5, 79.5}, false, 0.10, verdictWorse},
		{"noisy and interleaved", []float64{60, 140, 100, 180, 30}, true, 0.10, verdictUnresolved},
		{"noisy but every run worse than every baseline run", []float64{150, 300, 200, 400, 250}, true, 0.10, verdictWorse},
		{"noisy but every run better than every baseline run", []float64{10, 60, 30, 90, 50}, true, 0.10, verdictSame},
	} {
		got := compare(base, c.b, c.lower, c.bound, false)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %q (change %.3f, spread %.3f), want %q", c.name, got.verdict, got.change, got.spread, c.want)
		}
	}
	// Set-up time is judged on medians alone: the same noisy, interleaved
	// sample resolves, and a shifted median still reads worse.
	noisy := []float64{60, 140, 100, 180, 30}
	if got := compare(base, noisy, true, 0.10, true); got.verdict != verdictSame {
		t.Errorf("medians only, noisy: verdict %q, want same", got.verdict)
	}
	if got := compare(base, []float64{60, 140, 120, 180, 30}, true, 0.10, true); got.verdict != verdictWorse {
		t.Errorf("medians only, median +20%%: verdict %q, want worse", got.verdict)
	}
}

// TestCheckAppliesAWorkloadsTighterBound: BENCHMARK.json's one bound per
// metric is set by the noisiest workload; a 5 % rise in allocations must
// still read worse where the count repeats and the workload says so.
func TestCheckAppliesAWorkloadsTighterBound(t *testing.T) {
	defs := []metricDef{{Name: "server_allocs_per_event", Unit: "1/event", Better: "lower", Bound: 0.15}}
	set := func(scale float64) (rs []result) {
		for _, wl := range []string{"churn-large", "replicated-small"} {
			for i := 0; i < minRunsPerSet; i++ {
				v := (1000 + float64(i)) * scale
				rs = append(rs, result{Correct: true, Workload: wl,
					Metrics: map[string]jsonMetric{"server_allocs_per_event": {Value: v, Unit: "1/event"}}})
			}
		}
		return rs
	}
	rows, err := checkSets(io.Discard, set(1), set(1.05), defs)
	if err != nil {
		t.Fatal(err)
	}
	// Rows come in workload name order.
	if len(rows) != 2 || rows[0].verdict != verdictWorse || rows[0].bound != 0.03 {
		t.Errorf("churn-large: %+v, want worse at its own 3 %% bound", rows[0])
	}
	if rows[1].verdict != verdictSame || rows[1].bound != 0.15 {
		t.Errorf("replicated-small: %+v, want same at the file's 15 %% bound", rows[1])
	}
}
