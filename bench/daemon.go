package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildServer compiles cmd/pubsub-server from the checkout at root into
// outDir and returns the binary's path. With a warm build cache this is a
// no-op link check, so every run may call it.
func buildServer(root, outDir string) (string, error) {
	bin := filepath.Join(outDir, "pubsub-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pubsub-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building pubsub-server in %s: %v\n%s", root, err, out)
	}
	return bin, nil
}

// daemon is one running pubsub-server in its own process group.
type daemon struct {
	cmd    *exec.Cmd
	stderr bytes.Buffer

	mu     sync.Mutex
	lines  []string
	notify chan struct{} // a line arrived or stdout closed
	eof    bool

	waitOnce sync.Once
	waitErr  error
	exited   chan struct{}
}

// startDaemon execs the server with args. The child leads its own process
// group (so a kill reaches anything it spawns) and dies with the benchmark.
func startDaemon(bin string, args ...string) (*daemon, error) {
	d := &daemon{notify: make(chan struct{}, 1), exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d.cmd.Stderr = &d.stderr
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			d.mu.Lock()
			d.lines = append(d.lines, sc.Text())
			d.mu.Unlock()
			d.wake()
		}
		d.mu.Lock()
		d.eof = true
		d.mu.Unlock()
		d.wake()
	}()
	return d, nil
}

func (d *daemon) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// waitLine blocks until the daemon has printed a line starting with prefix
// and returns the rest of that line, trimmed.
func (d *daemon) waitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := 0
	for {
		d.mu.Lock()
		for ; seen < len(d.lines); seen++ {
			if rest, ok := strings.CutPrefix(d.lines[seen], prefix); ok {
				d.mu.Unlock()
				return strings.TrimSpace(rest), nil
			}
		}
		eof := d.eof
		d.mu.Unlock()
		if eof {
			return "", fmt.Errorf("pubsub-server exited before printing %q: %s", prefix, d.tail())
		}
		select {
		case <-d.notify:
		case <-deadline.C:
			return "", fmt.Errorf("pubsub-server did not print %q within %v: %s", prefix, timeout, d.tail())
		}
	}
}

// tail returns the daemon's last output for error messages.
func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.lines)
	if n > 5 {
		n = 5
	}
	return strings.Join(d.lines[len(d.lines)-n:], " | ") + " || " + strings.TrimSpace(d.stderr.String())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// wait reaps the process exactly once.
func (d *daemon) wait() error {
	d.waitOnce.Do(func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	})
	return d.waitErr
}

// kill SIGKILLs the daemon's process group and reaps it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return // already reaped; its pid may belong to someone else now
	default:
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL)
	_ = d.wait()
}

// drain asks for a graceful shutdown (SIGTERM), waits for the exit and
// reports a non-zero status as an error. A daemon still alive after
// timeout is killed.
func (d *daemon) drain(timeout time.Duration) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	go d.wait()
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("pubsub-server drain: %v: %s", d.waitErr, d.tail())
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("pubsub-server did not drain within %v", timeout)
	}
}

// procSample is what /proc says about a process.
type procSample struct {
	cpu   time.Duration // utime+stime
	hwmKB int64         // VmHWM, peak resident set
}

// clkTck is USER_HZ; Linux has fixed it at 100 on every supported
// architecture, and /proc reports CPU time in these ticks.
const clkTck = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return s, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return s, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64) // field 14: utime
	st, _ := strconv.ParseInt(f[12], 10, 64) // field 15: stime
	s.cpu = time.Duration(ut+st) * time.Second / clkTck
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			s.hwmKB, _ = strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
		}
	}
	return s, nil
}

// memSample is the runtime.MemStats block the daemon's heap profile prints.
type memSample struct {
	mallocs, totalAlloc, heapAlloc, numGC uint64
}

// readMem fetches /debug/pprof/heap?debug=1 and parses the MemStats
// trailer. With gc it asks the daemon to run a collection first, so
// heapAlloc is the live heap.
func readMem(httpAddr string, gc bool) (memSample, error) {
	var m memSample
	url := "http://" + httpAddr + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	body, err := httpGet(url)
	if err != nil {
		return m, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		var dst *uint64
		switch name {
		case "Mallocs":
			dst = &m.mallocs
		case "TotalAlloc":
			dst = &m.totalAlloc
		case "HeapAlloc":
			dst = &m.heapAlloc
		case "NumGC":
			dst = &m.numGC
		default:
			continue
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return m, fmt.Errorf("heap profile: %s = %q", name, val)
		}
		*dst = v
		found++
	}
	if found != 4 {
		return m, fmt.Errorf("heap profile from %s: found %d of 4 MemStats fields", httpAddr, found)
	}
	return m, nil
}

// registrySample is a /metrics.json snapshot: scope → instrument → value.
type registrySample map[string]struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func readRegistry(httpAddr string) (registrySample, error) {
	body, err := httpGet("http://" + httpAddr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	var r registrySample
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("metrics.json: %w", err)
	}
	return r, nil
}

// counter returns scope/name and whether the daemon registers it.
func (r registrySample) counter(scope, name string) (int64, bool) {
	v, ok := r[scope].Counters[name]
	return v, ok
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix ("" = all).
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // rotated away between ReadDir and Info
			}
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// fsKind names the filesystem holding path (from /proc/mounts, longest
// mount-point prefix), for the environment record.
func fsKind(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
