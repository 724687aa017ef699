package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minRunsPerSet is how many correct runs of a workload a result set needs
// before `bench check` will compare it.
const minRunsPerSet = 5

// setupMetric is judged on its medians alone, which is the acceptance
// driver's rule for it: the driver requires set-up time among the gated
// metrics and exempts it, and only it, from the spread test. A set-up is a
// few seconds of CPU-bound work on every core, and on a shared host its
// duration moves with the host in spells that outlast a run (NOISE.md), so
// no estimator within a run steadies it; across the ten runs of a set the
// median does hold still.
const setupMetric = "setup_s"

// Verdicts of `bench check`, per end-to-end metric × workload.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one row of `bench check`.
type comparison struct {
	unit                  string
	a, b                  [3]float64 // q1, median, q3
	na, nb                int
	change, spread, bound float64 // shares of A's median; change > 0 = B worse
	verdict               string
}

// compare applies the benchmark's rule to two samples of one metric:
//
//   - worse: B's median is worse than A's by more than bound (a share of
//     A's median);
//   - unresolved: the run-to-run spread (quartile distance over median, the
//     wider of the two sets) exceeds bound and the sets' runs interleave,
//     so the data cannot tell a regression of that size from noise;
//   - same: otherwise.
//
// Runs that do not interleave decide on their medians whatever the spread:
// every B run better than every A run is never a regression. With
// mediansOnly the spread is reported but never makes the row unresolved.
func compare(a, b []float64, lowerIsBetter bool, bound float64, mediansOnly bool) comparison {
	var c comparison
	c.na, c.nb, c.bound = len(a), len(b), bound
	c.a[0], c.a[1], c.a[2] = quartiles(a)
	c.b[0], c.b[1], c.b[2] = quartiles(b)
	base := math.Abs(c.a[1])
	if base == 0 {
		base = 1
	}
	c.change = (c.b[1] - c.a[1]) / base
	if !lowerIsBetter {
		c.change = -c.change
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	c.spread = math.Max(spread(c.a), spread(c.b))
	sa, sb := sortedCopy(a), sortedCopy(b)
	interleaved := !(sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0])
	switch {
	case c.spread > bound && interleaved && !mediansOnly:
		c.verdict = verdictUnresolved
	case c.change > bound:
		c.verdict = verdictWorse
	default:
		c.verdict = verdictSame
	}
	return c
}

// readResults loads a result file written with -out: one JSON result per
// line.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// samples groups the end-to-end values of a result set by workload and
// metric, leaving out incorrect runs (which it counts).
func samples(rs []result, defs []metricDef) (vals map[string]map[string][]float64, incorrect int) {
	vals = make(map[string]map[string][]float64)
	for _, r := range rs {
		if !r.Correct {
			incorrect++
			continue
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			if !ok {
				continue // a traced run: no end-to-end metrics
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = make(map[string][]float64)
			}
			vals[r.Workload][d.Name] = append(vals[r.Workload][d.Name], m.Value)
		}
	}
	return vals, incorrect
}

// checkSets compares result set B against baseline A for every workload
// both hold, printing one row per end-to-end metric × workload. defs is
// BENCHMARK.json's end_to_end table, so the tool judges by the file the
// driver reads, except where a workload records a tighter bound of its own.
func checkSets(w io.Writer, a, b []result, defs []metricDef) (rows []comparison, err error) {
	av, abad := samples(a, defs)
	bv, bbad := samples(b, defs)
	if abad+bbad > 0 {
		return nil, fmt.Errorf("%d run(s) in A and %d in B are marked incorrect: a set with failed runs is not a measurement", abad, bbad)
	}
	var names []string
	for wl := range av {
		if _, ok := bv[wl]; ok {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("the two sets share no workload")
	}
	fmt.Fprintf(w, "%-17s %-24s %36s %36s %8s %7s %6s  %s\n", "workload", "metric", "A median [q1 … q3] n", "B median [q1 … q3] n", "change", "spread", "bound", "verdict")
	wideSetup := false
	for _, wl := range names {
		for _, d := range defs {
			as, bs := av[wl][d.Name], bv[wl][d.Name]
			if len(as) < minRunsPerSet || len(bs) < minRunsPerSet {
				return nil, fmt.Errorf("%s %s: %d runs in A and %d in B, need at least %d in each", wl, d.Name, len(as), len(bs), minRunsPerSet)
			}
			bound := d.Bound
			if w, err := workloadByName(wl); err == nil {
				if b, ok := w.tighter[d.Name]; ok {
					bound = b
				}
			}
			c := compare(as, bs, d.Better == "lower", bound, d.Name == setupMetric)
			if d.Name == setupMetric && c.spread > bound {
				wideSetup = true
			}
			rows = append(rows, c)
			cell := func(q [3]float64, n int) string {
				return fmt.Sprintf("%.4g [%.4g … %.4g] %d", q[1], q[0], q[2], n)
			}
			fmt.Fprintf(w, "%-17s %-24s %36s %36s %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				wl, d.Name+" "+d.Unit, cell(c.a, c.na), cell(c.b, c.nb), 100*c.change, 100*c.spread, 100*c.bound, c.verdict)
		}
	}
	if wideSetup {
		fmt.Fprintf(w, "%s: spread wider than the bound; judged on the medians alone, as the acceptance driver judges set-up time\n", setupMetric)
	}
	return rows, nil
}

// cmdCheck is `bench check A B`: B is judged against baseline A. Exit
// status 1 if any metric is worse, 0 otherwise (unresolved rows are
// counted in the summary), 2 for unusable input.
func cmdCheck(args []string) int {
	fs := flag.NewFlagSet("bench check", flag.ContinueOnError)
	root := fs.String("root", "", "checkout root holding BENCHMARK.json (default: the parent of the current directory, then the current directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench check [-root DIR] A B   (result files written by run -out)")
		return 2
	}
	var bf *benchmarkFile
	var err error
	for _, dir := range []string{*root, "..", "."} {
		if dir == "" {
			continue
		}
		if bf, err = loadBenchmarkFile(dir); err == nil {
			break
		}
		if *root != "" {
			break
		}
	}
	if bf == nil {
		fmt.Fprintf(os.Stderr, "bench check: cannot read BENCHMARK.json: %v\n", err)
		return 2
	}
	a, err := readResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench check: %v\n", err)
		return 2
	}
	b, err := readResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench check: %v\n", err)
		return 2
	}
	fmt.Printf("A = %s (baseline), B = %s\n", filepath.Base(fs.Arg(0)), filepath.Base(fs.Arg(1)))
	rows, err := checkSets(os.Stdout, a, b, bf.EndToEnd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench check: %v\n", err)
		return 2
	}
	worse, unresolved := 0, 0
	for _, r := range rows {
		switch r.verdict {
		case verdictWorse:
			worse++
		case verdictUnresolved:
			unresolved++
		}
	}
	fmt.Printf("%d rows: %d worse, %d unresolved, %d same\n", len(rows), worse, unresolved, len(rows)-worse-unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
