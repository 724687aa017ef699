package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// serverSample is one reading of everything the benchmark takes from a
// running deployment from outside.
type serverSample struct {
	mem  memSample
	reg  registrySample
	proc []procSample // parallel to deployment.daemons
}

func sampleServer(dep *deployment) (serverSample, error) {
	var s serverSample
	var err error
	if s.mem, err = readMem(dep.http, false); err != nil {
		return s, err
	}
	if s.reg, err = readRegistry(dep.http); err != nil {
		return s, err
	}
	for _, pid := range dep.pids {
		p, err := readProc(pid)
		if err != nil {
			return s, err
		}
		s.proc = append(s.proc, p)
	}
	return s, nil
}

// phaseResult is one open-loop phase against a real deployment.
type phaseResult struct {
	load          loadStats
	churn         churnResult
	before, after serverSample
	liveHeap      uint64 // HeapAlloc after a forced collection, right after the window
	wireBytes     int64  // socket bytes both ways on both connections over the phase
	mirrorLag     int64  // leader − standby journal bytes at window end (replicated only)
	mirrorErr     error  // the standby failed to mirror the leader once traffic stopped
	seqEnd        int64  // sequences consumed so far on this deployment
}

// openLoopPhase drives tr's stream through dep at the workload's rate:
// warm-up, then a measured window of the given length, with the workload's
// churn beside it. sink is the receiver goroutine's collector slot; seqBase
// is how many sequences earlier phases on this deployment consumed.
func openLoopPhase(dep *deployment, tr *traffic, window time.Duration, sink *atomic.Pointer[collector], seqBase int64) (*phaseResult, error) {
	wl := dep.wl
	res := &phaseResult{}
	var err error
	if res.before, err = sampleServer(dep); err != nil {
		return nil, fmt.Errorf("sampling before the run: %w", err)
	}
	bytes0 := dep.wireBytes()

	d := drive(wl, tr, tr.events, connEndpoints(dep.pub), sink, seqBase, time.Now(), wl.warmup, window, true)
	res.load, res.churn = d.load, d.churn

	if res.after, err = sampleServer(dep); err != nil {
		return nil, fmt.Errorf("sampling after the run: %w", err)
	}
	// Two collections: the first moves sync.Pool contents to the pools'
	// victim caches, the second drops them, so the reading does not depend
	// on how long ago the daemon's last natural collection ran.
	var live memSample
	for i := 0; i < 2; i++ {
		if live, err = readMem(dep.http, true); err != nil {
			return nil, fmt.Errorf("reading the live heap: %w", err)
		}
	}
	res.liveHeap = live.heapAlloc
	res.wireBytes = dep.wireBytes() - bytes0
	if wl.shape == shapeReplicated {
		lb, err := dirBytes(dep.dirs[0], "journal.")
		if err != nil {
			return nil, err
		}
		sb, err := dirBytes(dep.dirs[1], "journal.")
		if err != nil {
			return nil, err
		}
		res.mirrorLag = lb - sb
		res.mirrorErr = dep.awaitMirror(2 * time.Second)
	}
	res.seqEnd = seqBase + int64(len(tr.events))
	return res, nil
}

// events is how many events the phase published (warm-up included) — the
// divisor of every per-event server quantity, which are deltas over the
// same span.
func (p *phaseResult) events() float64 { return float64(p.load.attempted) }

func (p *phaseResult) allocsPerEvent() float64 {
	return float64(p.after.mem.mallocs-p.before.mem.mallocs) / p.events()
}

func (p *phaseResult) allocBytesPerEvent() float64 {
	return float64(p.after.mem.totalAlloc-p.before.mem.totalAlloc) / p.events()
}

func (p *phaseResult) cpuUsPerEvent(daemon int) float64 {
	return float64(p.after.proc[daemon].cpu-p.before.proc[daemon].cpu) / 1e3 / p.events()
}

// counterDelta is after−before of a daemon counter and whether the
// deployment registers it.
func (p *phaseResult) counterDelta(scope, name string) (float64, bool) {
	a, ok := p.after.reg.counter(scope, name)
	if !ok {
		return 0, false
	}
	b, _ := p.before.reg.counter(scope, name)
	return float64(a - b), true
}

// histMean is Δsum/Δcount of a daemon histogram over the phase.
func (p *phaseResult) histMean(scope, name string) (float64, bool) {
	a, ok := p.after.reg[scope].Histograms[name]
	if !ok {
		return 0, false
	}
	b := p.before.reg[scope].Histograms[name]
	if a.Count == b.Count {
		return 0, true
	}
	return (a.Sum - b.Sum) / float64(a.Count-b.Count), true
}

// histCount is Δcount of a daemon histogram over the phase.
func (p *phaseResult) histCount(scope, name string) (float64, bool) {
	a, ok := p.after.reg[scope].Histograms[name]
	if !ok {
		return 0, false
	}
	return float64(a.Count - p.before.reg[scope].Histograms[name].Count), true
}
