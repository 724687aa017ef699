package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// inProcessLauncher stands in for the daemon launcher: the same layers the
// daemon assembles for a plain deployment — engine, broker, transport
// server, telemetry endpoint — served from the test process, so the run and
// trace commands execute their real code paths without an exec.
func inProcessLauncher() launcher {
	return func(wl workloadDef, _ string, tr *traffic) (dep *deployment, err error) {
		begin := time.Now()
		world, err := buildWorld(wl.subs)
		if err != nil {
			return nil, err
		}
		engine, err := core.NewFromWorld(world, world.Events(2000, worldSeed+2), daemonEngineConfig())
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		srv := transport.NewServer(transport.Config{Registry: reg})
		b, err := broker.New(engine, append(daemonBrokerOptions(), broker.WithTelemetry(reg), broker.WithObserver(srv.Dispatch))...)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln, b) }()
		tsrv, err := telemetry.Serve("127.0.0.1:0", reg, nil)
		if err != nil {
			srv.Close()
			<-served
			b.Close()
			return nil, err
		}
		dep = &deployment{wl: wl, addr: ln.Addr().String(), http: tsrv.Addr(), pids: []int{os.Getpid()}}
		dep.stop = func() error {
			tsrv.Close()
			srv.Close()
			<-served
			return b.Close()
		}
		if dep.clients, err = dialClients(dep.addr, tr); err != nil {
			dep.destroy()
			return nil, err
		}
		dep.setup = time.Since(begin)
		return dep, nil
	}
}

// TestSmokeEveryDeclaredMetricIsEmitted runs a miniature workload through
// run and trace and holds their output against BENCHMARK.json: every metric
// the file names is emitted exactly once, with the unit the file gives it.
func TestSmokeEveryDeclaredMetricIsEmitted(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	wl := workloadDef{name: "smoke", shape: shapeSolo, subs: 150, rate: 500, warmup: 200 * time.Millisecond,
		limit: 100 * time.Millisecond, churnPairs: 20, setups: 3}
	var out bytes.Buffer
	cfg := &runConfig{root: root, bench: bf, workload: wl.name, seed: 1, seconds: 1, log: &out, def: &wl, scratch: new(scratchDir)}
	t.Cleanup(cfg.scratch.remove)

	res, err := runUntraced(cfg, inProcessLauncher())
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 500 {
		t.Fatalf("run: correct %v, failed %d, attempted %d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
	}
	if len(res.Metrics) != len(bf.EndToEnd) {
		t.Errorf("run emitted %d metrics, BENCHMARK.json declares %d end-to-end", len(res.Metrics), len(bf.EndToEnd))
	}
	for _, m := range bf.EndToEnd {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("run did not emit %s", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
		case got.Value <= 0:
			t.Errorf("%s = %v: an end-to-end metric must never read 0", m.Name, got.Value)
		}
		if n := countMetricLines(out.String(), m.Name, m.Unit); n != 1 {
			t.Errorf("run printed %s %d times, want once", m.Name, n)
		}
	}
	if strings.Contains(res.driverLine(), "workload") {
		t.Errorf("the driver line must hold exactly correct, attempted, failed and metrics: %s", res.driverLine())
	}

	out.Reset()
	spans := filepath.Join(root, "spans.jsonl")
	tres, err := runTraced(cfg, inProcessLauncher(), spans)
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, out.String())
	}
	if !tres.Correct {
		t.Fatalf("trace: incorrect\n%s", out.String())
	}
	if len(tres.Metrics) != len(bf.PerLayer) {
		t.Errorf("trace emitted %d metrics, BENCHMARK.json declares %d per-layer", len(tres.Metrics), len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		got, ok := tres.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("trace did not emit %s", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s emitted in %q, declared in %q", m.Name, got.Unit, m.Unit)
		}
		if n := countMetricLines(out.String(), m.Name, m.Unit); n != 1 {
			t.Errorf("trace printed %s %d times, want once", m.Name, n)
		}
	}
	if v := tres.Metrics["core.decide_allocs"].Value; v != 0 {
		t.Errorf("core.decide_allocs = %v: DecideInto must not allocate", v)
	}
	// The budget's rows must add up to the traced run's own median.
	m := regexp.MustCompile(`sum\s+([0-9.]+)\s+([0-9.]+)%`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no budget table in the trace output:\n%s", out.String())
	}
	if share, err := strconv.ParseFloat(m[2], 64); err != nil || share < 90 || share > 110 {
		t.Errorf("budget rows sum to %s%% of the traced p50, want within 10%%", m[2])
	}
	if info, err := os.Stat(spans); err != nil || info.Size() == 0 {
		t.Errorf("spans file: %v", err)
	}
}

// countMetricLines counts the report lines of the form "  name  value unit".
func countMetricLines(report, name, unit string) int {
	re := regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(name) + `\s+(absent|[-0-9.]+) ` + regexp.QuoteMeta(unit) + `$`)
	return len(re.FindAllString(report, -1))
}

// TestBenchmarkFileWithinDriverLimits holds BENCHMARK.json — the one table
// of workloads and metrics, which the program reads at run time — to the
// driver's limits and to the workloads the program defines.
func TestBenchmarkFileWithinDriverLimits(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if want := "bash bench/run.sh"; strings.Join(bf.Command, " ") != want {
		t.Errorf("command %v, want %s", bf.Command, want)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", bf.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the driver's limits", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		use(w.Name)
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range bf.EndToEnd {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, direction %q or bound %v outside the driver's limits", m.Name, m.Unit, m.Better, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range bf.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1..128", len(bf.PerLayer))
	}
	for _, m := range bf.PerLayer {
		use(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound != 0 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, direction %q or a bound (%v) outside the driver's limits", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
}
