package core

import (
	"fmt"

	"repro/internal/multicast"
	"repro/internal/topology"
	"repro/internal/workload"
)

// DecisionSnapshot is an immutable view of everything one delivery
// decision reads: the subscription index (a private clone of the R*-tree),
// a frozen subscription slice, the group tables, the overlay set and a
// copy of the quarantine set. Snapshots are safe for concurrent use by any
// number of readers; the broker publishes them through an atomic pointer
// and its decision workers take lock-free loads (RCU: readers drain on the
// old snapshot while the writer prepares the next).
//
// Cost queries need per-goroutine scratch state, so Decide and CostOf take
// the calling worker's view of the engine's cost model (create one per
// goroutine with Engine.NewSPTView). Decisions are byte-identical to
// Engine.Decide against the same state, for every worker count.
type DecisionSnapshot struct {
	version int64
	dec     decider
}

// Version is the snapshot's monotone build number (1 for the first
// snapshot an engine builds).
func (s *DecisionSnapshot) Version() int64 { return s.version }

// NumGroups returns the number of multicast groups in the snapshot.
func (s *DecisionSnapshot) NumGroups() int { return len(s.dec.groupNodes) }

// NumQuarantined returns how many groups this snapshot quarantines.
func (s *DecisionSnapshot) NumQuarantined() int { return len(s.dec.quarantined) }

// Quarantined reports whether group g is quarantined in this snapshot.
func (s *DecisionSnapshot) Quarantined(g int) bool { return s.dec.quarantined[g] }

// NumSubscriptions returns the live subscription count at snapshot time.
func (s *DecisionSnapshot) NumSubscriptions() int { return s.dec.tree.Len() }

// GroupNodes returns group g's member nodes. The slice is shared and must
// be treated as read-only.
func (s *DecisionSnapshot) GroupNodes(g int) []topology.NodeID {
	if g < 0 || g >= len(s.dec.groupNodes) {
		panic(fmt.Sprintf("core: group %d out of range [0,%d)", g, len(s.dec.groupNodes)))
	}
	return s.dec.groupNodes[g]
}

// Decide plans delivery for one event against the frozen state. view must
// be owned by the calling goroutine. The returned Decision's slices are
// freshly allocated and safe to retain.
func (s *DecisionSnapshot) Decide(ev workload.Event, view *multicast.Model) Decision {
	return s.dec.decide(ev, view, nil)
}

// DecideInto is Decide with caller-owned scratch: the returned Decision's
// slices alias sc's buffers and are valid only until sc's next use. A
// decide worker that reuses one scratch across events makes the whole
// decide path allocation-free in steady state; decisions are bit-identical
// to Decide. sc must be owned by the calling goroutine.
func (s *DecisionSnapshot) DecideInto(ev workload.Event, view *multicast.Model, sc *DecideScratch) Decision {
	return s.dec.decide(ev, view, sc)
}

// CostOf prices a decision made against this snapshot. view must be owned
// by the calling goroutine.
func (s *DecisionSnapshot) CostOf(ev workload.Event, d Decision, view *multicast.Model) Costs {
	return s.dec.costOf(ev, d, view)
}

// NewSPTView creates a decision worker's view of the engine's cost model:
// it shares the model's shortest-path-tree cache and owns its own
// scratch. Views work across snapshot swaps (the network topology is fixed
// for the engine's lifetime) but are not safe for concurrent use: one per
// goroutine.
func (e *Engine) NewSPTView() *multicast.Model { return e.model.View() }

// Snapshot returns an immutable decision snapshot of the engine's current
// state, building one only when state changed since the last call:
//
//   - nothing changed: the previous snapshot is returned as-is;
//   - only the quarantine set changed: the new snapshot shares the
//     subscription index and group tables with its predecessor and swaps
//     in a fresh quarantine copy (cheap, O(quarantined));
//   - subscriptions or groups changed: the R*-tree is cloned and the
//     subscription slice frozen at its current length, so the engine's
//     subsequent Insert/Delete/append mutations never touch the snapshot.
//
// Snapshot must be called from the goroutine that owns the engine.
func (e *Engine) Snapshot() *DecisionSnapshot {
	if e.lastSnap != nil && !e.dirtySubs && !e.dirtyGroups && !e.dirtyQuar {
		return e.lastSnap
	}
	e.snapVersion++
	var dec decider
	if e.lastSnap != nil && !e.dirtySubs && !e.dirtyGroups {
		// Quarantine-only change: share everything structural.
		dec = e.lastSnap.dec
	} else {
		dec = e.dec()
		dec.tree = e.tree.Clone()
		// Freeze the slice length: writer-side appends only ever write at
		// indices ≥ this length, which the snapshot never reads. Capping
		// the capacity too keeps any accidental append on the snapshot
		// side from aliasing the live array.
		dec.subs = e.world.Subs[:len(e.world.Subs):len(e.world.Subs)]
	}
	if len(e.quarantined) == 0 {
		dec.quarantined = nil
	} else {
		q := make(map[int]bool, len(e.quarantined))
		for g := range e.quarantined {
			q[g] = true
		}
		dec.quarantined = q
	}
	s := &DecisionSnapshot{version: e.snapVersion, dec: dec}
	e.lastSnap = s
	e.dirtySubs, e.dirtyGroups, e.dirtyQuar = false, false, false
	return s
}
