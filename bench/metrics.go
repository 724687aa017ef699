package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it. That file is the
// only table of names, units, directions and bounds: run, trace and check
// all read it, so what the program emits and what the driver expects cannot
// drift apart. README.md says how each metric is taken and which end-to-end
// metric a per-layer one is expected to move on which workload.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound (end-to-end only) is the share of the baseline median by which
	// the metric may worsen before `bench check` calls it worse.
	Bound float64 `json:"bound"`
}

// value is one emitted measurement. Absent marks a metric the workload's
// deployment shape has no such layer or counter for: the report prints
// "absent", and the driver's JSON, which must carry every declared metric
// as a number, carries 0.
type value struct {
	V      float64
	Absent bool
}

// metricSet collects a run's values against a declared table.
type metricSet struct {
	defs []metricDef
	vals map[string]value
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value)}
}

func (m *metricSet) def(name string) metricDef {
	for _, d := range m.defs {
		if d.Name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not declared in BENCHMARK.json")
}

// set records name = v; setting an undeclared or already set name is a bug.
func (m *metricSet) set(name string, v float64) {
	m.def(name)
	if _, dup := m.vals[name]; dup {
		panic("bench: metric " + name + " set twice")
	}
	m.vals[name] = value{V: v}
}

// absent records that the workload has no such layer or counter.
func (m *metricSet) absent(names ...string) {
	for _, name := range names {
		m.def(name)
		m.vals[name] = value{Absent: true}
	}
}

// missing lists declared metrics the run never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// print writes the human-readable table, one metric per line with its unit.
func (m *metricSet) print(w io.Writer) {
	for _, d := range m.defs {
		v, ok := m.vals[d.Name]
		switch {
		case !ok:
			continue
		case v.Absent:
			fmt.Fprintf(w, "  %-40s %14s %s\n", d.Name, "absent", d.Unit)
		default:
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, v.V, d.Unit)
		}
	}
}

// result is one run's outcome: the driver's last-line JSON object is its
// first four fields, and a -out result file holds whole results, one per
// line, for `bench check`.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`

	Workload string            `json:"workload,omitempty"`
	Seed     int64             `json:"seed,omitempty"`
	Seconds  int               `json:"seconds,omitempty"`
	Env      map[string]string `json:"env,omitempty"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) json() map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(m.defs))
	for _, d := range m.defs {
		if v, ok := m.vals[d.Name]; ok {
			out[d.Name] = jsonMetric{Value: v.V, Unit: d.Unit}
		}
	}
	return out
}

// driverLine renders the contract's last line: exactly correct, attempted,
// failed and metrics.
func (r result) driverLine() string {
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// appendResult adds r as one line to the result file at path.
func appendResult(path string, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &f, nil
}

// envString renders an environment record on one line, keys sorted.
func envString(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%s", k, env[k])
	}
	return sb.String()
}
