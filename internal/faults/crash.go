// Package faults injects the failures a pubsub daemon meets, each on the
// path that meets it, so chaos tests can stage them deterministically:
//
//   - CrashInjector kills the durable store at a chosen journal append or
//     checkpoint (CrashPoint), the classic write-ahead-log failure
//     windows; every later store operation fails with ErrCrashed until a
//     new incarnation re-opens the directory.
//   - ConnInjector wraps the wire transport's connections: it splits
//     writes into chunks, stalls reads and writes, and cuts a connection
//     after a scheduled byte count, so the peer sees a reset mid-frame.
//
// Everything is reproducible from a seed: every decision is a pure hash of
// (seed, connection index, operation index) or a fixed count of store
// operations, never a draw from a shared generator, so the outcome does
// not depend on goroutine interleaving and a (seed, config) pair replays
// the same schedule run after run.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrCrashed is returned by durable-store operations after a scheduled
// crash point fires: the simulated process is dead, the operation did not
// take effect (except as documented per crash point), and every subsequent
// operation fails until the store is re-opened by a new incarnation.
var ErrCrashed = errors.New("faults: simulated process crash")

// CrashPoint identifies where, relative to a durable-store operation, a
// scheduled process crash fires. The points mirror the classic
// write-ahead-log failure windows: before a record reaches the disk, after
// it is durable but before the caller can act on it, mid-write (a torn
// record that recovery must CRC-detect and truncate), and mid-checkpoint
// (the checkpoint temp file exists but was never atomically installed).
type CrashPoint int

const (
	// CrashBeforeAppend kills the process before the journal record is
	// written: nothing reaches the disk and the caller sees ErrCrashed.
	CrashBeforeAppend CrashPoint = iota + 1
	// CrashAfterAppend kills the process after the record is durably
	// written and synced, but before the append returns: the record
	// survives, the caller sees ErrCrashed, and recovery replays the
	// record's effect exactly once.
	CrashAfterAppend
	// CrashTornAppend kills the process mid-write: a partial frame reaches
	// the disk. Recovery must detect the torn tail via CRC/length checks,
	// truncate it, and count the truncation.
	CrashTornAppend
	// CrashMidCheckpoint kills the process after the checkpoint temp file
	// is written but before the atomic rename installs it: recovery must
	// ignore the temp file and fall back to the previous checkpoint plus
	// the full journal.
	CrashMidCheckpoint
)

func (p CrashPoint) String() string {
	switch p {
	case CrashBeforeAppend:
		return "before-append"
	case CrashAfterAppend:
		return "after-append"
	case CrashTornAppend:
		return "torn-append"
	case CrashMidCheckpoint:
		return "mid-checkpoint"
	default:
		return fmt.Sprintf("crash-point(%d)", int(p))
	}
}

// CrashPlan schedules one deterministic crash against a durable store.
// The zero plan never crashes.
type CrashPlan struct {
	// AtAppend fires Point at the AtAppend-th journal append (1-based,
	// counted across every record kind). Ignored when Point is
	// CrashMidCheckpoint, which instead fires at the next checkpoint.
	AtAppend int64
	// Point selects where the crash fires.
	Point CrashPoint
}

// CrashInjector arms a CrashPlan for a durable store. It is consulted once
// per journal append and once per checkpoint install; when the scheduled
// point is reached the injector flips to dead and every subsequent
// operation reports a crash, so one injector simulates exactly one process
// death. Safe for concurrent use.
type CrashInjector struct {
	plan    CrashPlan
	appends atomic.Int64
	dead    atomic.Bool
}

// NewCrashInjector arms a plan. A nil injector (or a zero plan) never
// crashes.
func NewCrashInjector(plan CrashPlan) *CrashInjector {
	return &CrashInjector{plan: plan}
}

// OnAppend is consulted by the store once per journal append, before any
// bytes are written. It returns the crash point to simulate for this
// append, or 0 to proceed normally. Once the injector is dead every append
// reports CrashBeforeAppend (the process no longer writes anything).
func (ci *CrashInjector) OnAppend() CrashPoint {
	if ci == nil {
		return 0
	}
	if ci.dead.Load() {
		return CrashBeforeAppend
	}
	if ci.plan.AtAppend <= 0 || ci.plan.Point == 0 || ci.plan.Point == CrashMidCheckpoint {
		return 0
	}
	if ci.appends.Add(1) == ci.plan.AtAppend {
		ci.dead.Store(true)
		return ci.plan.Point
	}
	return 0
}

// OnCheckpoint is consulted between writing the checkpoint temp file and
// renaming it into place; true means the process dies there, leaving the
// temp file stranded and the previous checkpoint current.
func (ci *CrashInjector) OnCheckpoint() bool {
	if ci == nil {
		return false
	}
	if ci.dead.Load() {
		return true
	}
	if ci.plan.Point == CrashMidCheckpoint {
		ci.dead.Store(true)
		return true
	}
	return false
}

// Dead reports whether the simulated process has crashed.
func (ci *CrashInjector) Dead() bool { return ci != nil && ci.dead.Load() }
