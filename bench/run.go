package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation of `bench run`.
type runConfig struct {
	root     string // checkout root (holds go.mod of module repro)
	bench    *benchmarkFile
	workload string
	seed     int64
	seconds  int
	out      string // result file to append to ("" = none)
	log      io.Writer
	// def, when set, replaces the lookup of workload by name; the smoke
	// test runs a miniature workload through the real code paths.
	def *workloadDef
	// scratch lets durable data go to a tmpfs directory outside the checkout,
	// which the caller removes; nil keeps it under the checkout.
	scratch *scratchDir
}

func (c *runConfig) flags(fs *flag.FlagSet) {
	fs.StringVar(&c.root, "root", "", "checkout root (default: the parent of the bench directory)")
	fs.StringVar(&c.workload, "workload", "", "workload name: replicated-small, fed4-small, solo-large, churn-large")
	fs.Int64Var(&c.seed, "seed", 1, "seed of the generated traffic")
	fs.IntVar(&c.seconds, "seconds", 0, "length of the measured window (default: run_seconds of BENCHMARK.json)")
	fs.StringVar(&c.out, "out", "", "append the result to this file (input of `bench check`)")
}

func (c *runConfig) resolve() error {
	if c.root == "" {
		// `go run .` inside bench/, or the built binary run from there.
		wd, err := os.Getwd()
		if err != nil {
			return err
		}
		c.root = filepath.Dir(wd)
		if _, err := os.Stat(filepath.Join(wd, "cmd", "pubsub-server")); err == nil {
			c.root = wd
		}
	}
	if _, err := os.Stat(filepath.Join(c.root, "cmd", "pubsub-server", "main.go")); err != nil {
		return fmt.Errorf("%s is not a checkout of the repository (no cmd/pubsub-server): pass -root", c.root)
	}
	var err error
	if c.bench, err = loadBenchmarkFile(c.root); err != nil {
		return err
	}
	if c.seconds == 0 {
		c.seconds = c.bench.RunSeconds
	}
	if c.seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", c.seconds)
	}
	if c.log == nil {
		c.log = os.Stdout
	}
	return nil
}

// buildDir is where everything the benchmark writes goes: binaries, the
// toolchain's caches (run.sh points them here) and per-run data dirs.
func (c *runConfig) buildDir() string { return filepath.Join(c.root, ".bench_build") }

// scratchDir is the directory for durable data that the benchmark may have
// made outside the checkout; it is removed on every exit path main controls.
type scratchDir struct {
	mu   sync.Mutex
	path string // "" until made, and when the data lives in the checkout
}

func (s *scratchDir) remove() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.path != "" {
		os.RemoveAll(s.path)
		s.path = ""
	}
}

// removeOnSignal makes SIGINT/SIGTERM clean up before the benchmark exits.
// The daemons need no help: each is started with PR_SET_PDEATHSIG, so none
// outlives the benchmark on any exit path, SIGKILL included.
func (s *scratchDir) removeOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		s.remove()
		os.Exit(130)
	}()
}

// environment records what a result depends on besides the code.
func environment(cfg *runConfig, dataDir string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"fs":         fsKind(dataDir),
		"commit":     "unknown",
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	}
	return env
}

// launcher deploys a workload. The real one execs pubsub-server; tests
// substitute an in-process deployment.
type launcher func(wl workloadDef, durableScratch string, tr *traffic) (*deployment, error)

// daemonLauncher builds cmd/pubsub-server from the checkout once and
// returns the launcher that execs it.
func daemonLauncher(cfg *runConfig) (launcher, error) {
	if err := os.MkdirAll(cfg.buildDir(), 0o755); err != nil {
		return nil, err
	}
	bin, err := buildServer(cfg.root, cfg.buildDir())
	if err != nil {
		return nil, err
	}
	return func(wl workloadDef, durableScratch string, tr *traffic) (*deployment, error) {
		return deploy(wl, bin, durableScratch, tr)
	}, nil
}

// prepared is what run and trace share: the workload, where durable data
// goes, and the environment record.
type prepared struct {
	wl      workloadDef
	launch  launcher
	scratch string
	env     map[string]string
}

func prepare(cfg *runConfig, launch launcher) (*prepared, error) {
	wl := cfg.def
	if wl == nil {
		w, err := workloadByName(cfg.workload)
		if err != nil {
			return nil, err
		}
		wl = &w
	}
	if err := os.MkdirAll(cfg.buildDir(), 0o755); err != nil {
		return nil, err
	}
	scratch, err := durableScratch(cfg.buildDir(), cfg.scratch)
	if err != nil {
		return nil, err
	}
	return &prepared{wl: *wl, launch: launch, scratch: scratch, env: environment(cfg, scratch)}, nil
}

// durableScratch picks where journals and checkpoints live. The benchmark
// measures the program, not the disk: on the sandbox's disk the replicated
// pair's latency is a multiple of its tmpfs latency and varies by a factor
// of ten from run to run, so durable data goes to /dev/shm when that is a
// writable tmpfs — the benchmark's one write outside the checkout, removed
// before it exits — and to the checkout otherwise. The result records which
// (env fs=...).
func durableScratch(buildDir string, made *scratchDir) (string, error) {
	if made != nil && fsKind("/dev/shm") == "tmpfs" {
		made.mu.Lock()
		defer made.mu.Unlock()
		if made.path != "" {
			return made.path, nil
		}
		if dir, err := os.MkdirTemp("/dev/shm", "pubsub-bench-"); err == nil {
			made.path = dir
			return dir, nil
		}
	}
	dir := filepath.Join(buildDir, "data")
	return dir, os.MkdirAll(dir, 0o755)
}

// timeSetups deploys the workload k times, tearing each deployment down
// at once, and returns the set-up times.
func timeSetups(p *prepared, tr *traffic, k int) ([]float64, error) {
	var setups []float64
	for i := 0; i < k; i++ {
		dep, err := p.launch(p.wl, p.scratch, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, dep.setup.Seconds())
		dep.destroy()
	}
	return setups, nil
}

// runUntraced is `bench run -trace 0`: the end-to-end metrics, from the real
// daemons, with no wrapper anywhere on the path.
func runUntraced(cfg *runConfig, launch launcher) (result, error) {
	res := result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds}
	p, err := prepare(cfg, launch)
	if err != nil {
		return res, err
	}
	res.Env = p.env
	wl := p.wl
	window := time.Duration(cfg.seconds) * time.Second
	n := int((wl.warmup + window) * time.Duration(wl.rate) / time.Second)
	tr, err := makeTraffic(wl, cfg.seed, n)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d subs, %d ev/s open loop, %v warm-up + %v window, limit %v\n",
		wl.name, cfg.seed, wl.subs, wl.rate, wl.warmup, window, wl.limit)
	fmt.Fprintf(cfg.log, "env: %s\n", envString(p.env))

	// setup_s is the fastest of the workload's set-ups: what disturbs a
	// set-up — the first exec of a fresh binary, a slow spell of the host —
	// only ever adds time, so the floor is the part that repeats. The slow
	// spells outlast a few consecutive set-ups, so they are taken at both
	// ends of the run: one, then the one that serves the measurement, and
	// the rest once the daemons have drained.
	setups, err := timeSetups(p, tr, 1)
	if err != nil {
		return res, err
	}
	dep, err := p.launch(wl, p.scratch, tr)
	if err != nil {
		return res, err
	}
	defer dep.destroy()
	setups = append(setups, dep.setup.Seconds())
	sink := dep.startReceivers()
	ph, err := openLoopPhase(dep, tr, window, sink, 0)
	if err != nil {
		return res, err
	}
	peak, err := readProc(dep.pids[0])
	if err != nil {
		return res, err
	}
	drainErr := ph.mirrorErr
	if err := dep.drainAll(); err != nil && drainErr == nil {
		drainErr = err
	}
	after, err := timeSetups(p, tr, wl.setups-len(setups))
	if err != nil {
		return res, err
	}
	setups = append(setups, after...)

	e2e := newMetricSet(cfg.bench.EndToEnd)
	e2e.set("deliver_p50_us", ph.load.p50Us)
	e2e.set("within_limit_share", ph.load.withinShare)
	e2e.set("server_allocs_per_event", ph.allocsPerEvent())
	e2e.set("server_live_heap_mb", float64(ph.liveHeap)/1e6)
	e2e.set("setup_s", slices.Min(setups))

	fmt.Fprintf(cfg.log, "end to end (%d events timed, median of %d window medians):\n", ph.load.p50N, numWindows)
	e2e.print(cfg.log)
	fmt.Fprintf(cfg.log, "  set-ups: %s s\n", fmtFloats(setups, 3))
	fmt.Fprintf(cfg.log, "pubsub-server (whole process, same window, ungated):\n")
	srv := newMetricSet(cfg.bench.PerLayer)
	setServerLayer(srv, ph, peak)
	srv.print(cfg.log)
	printWindows(cfg.log, ph.load)

	res.Metrics = e2e.json()
	finish(&res, cfg, ph, drainErr)
	return res, nil
}

// setServerLayer fills the pubsub-server.* metrics read over an open-loop
// phase (all but the saturation probe and the traced p50).
func setServerLayer(m *metricSet, ph *phaseResult, peak procSample) {
	m.set("pubsub-server.cpu_us_per_event", ph.cpuUsPerEvent(0))
	m.set("pubsub-server.deliver_p99_us", ph.load.p99Us)
	m.set("pubsub-server.deliver_p999_us", ph.load.p999Us)
	m.set("pubsub-server.peak_rss_mb", float64(peak.hwmKB)/1e3)
	m.set("pubsub-server.alloc_bytes_per_event", ph.allocBytesPerEvent())
	m.set("pubsub-server.gc_cycles", float64(ph.after.mem.numGC-ph.before.mem.numGC))
	late := 0.0
	for _, l := range ph.load.lateP99Us {
		if l > late {
			late = l
		}
	}
	m.set("pubsub-server.generator_late_p99_us", late)
}

// printWindows shows the per-window medians and the generator's lateness,
// so a schedule that slips from the first window to the last is visible.
func printWindows(w io.Writer, s loadStats) {
	fmt.Fprintf(w, "per window: deliver p50 %s us\n", fmtFloats(s.winP50Us, 0))
	fmt.Fprintf(w, "            within limit %s\n", fmtFloats(s.winShare, 4))
	fmt.Fprintf(w, "            generator late p50 %s us, p99 %s us\n", fmtFloats(s.lateP50Us, 0), fmtFloats(s.lateP99Us, 0))
	if n := len(s.lateP50Us); n > 1 && s.lateP50Us[n-1] > 1000 && s.lateP50Us[n-1] > 5*s.lateP50Us[0] {
		fmt.Fprintf(w, "WARNING: the generator fell behind its schedule; the numbers measure the generator\n")
	}
}

// finish turns the phase's correctness accounting into the result's
// verdict and prints it.
func finish(res *result, cfg *runConfig, ph *phaseResult, drainErr error) {
	l := ph.load
	ctrl := fanOwners + 1 + ph.churn.ops
	res.Attempted = l.attempted + ctrl
	res.Failed = l.violations() + ph.churn.failed
	res.Correct = res.Failed == 0 && l.stray == 0 && drainErr == nil
	fmt.Fprintf(cfg.log, "correctness: %d events + %d control operations; failed %d, lost %d, duplicated %d, spurious %d, stray deliveries %d, churn failures %d\n",
		l.attempted, ctrl, l.failed, l.lost, l.dup, l.spurious, l.stray, ph.churn.failed)
	if ph.churn.firstErr != nil {
		fmt.Fprintf(cfg.log, "  first churn error: %v\n", ph.churn.firstErr)
	}
	if drainErr != nil {
		fmt.Fprintf(cfg.log, "  deployment: %v\n", drainErr)
	}
}

func fmtFloats(v []float64, prec int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}
