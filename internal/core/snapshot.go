package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// DecisionSnapshot is an immutable view of everything one delivery
// decision reads: the subscription index (an O(1) clone of the persistent
// R*-tree, sharing every node the writer has not since changed), a frozen
// subscription slice, the group table (with its overlays) and a copy of the
// quarantine set. Snapshots are safe for concurrent use by any
// number of readers; the broker publishes them through an atomic pointer
// and its decision workers take lock-free loads (RCU: readers drain on the
// old snapshot while the writer prepares the next).
//
// Cost queries need per-goroutine scratch state, so Decide and CostOf take
// the calling worker's view of the engine's cost model (create one per
// goroutine with Engine.NewSPTView or multicast.Model.View). Decisions are
// byte-identical for every worker count.
//
// An Engine builds its snapshots with Snapshot. GridSnapshot and
// NoLossSnapshot build one over a grouping computed outside an Engine, so
// the paper's experiments replay through the same decision code the
// broker runs.
type DecisionSnapshot struct {
	version int64
	dec     decider
}

// Version is the snapshot's monotone build number (1 for the first
// snapshot an engine builds, 0 for GridSnapshot and NoLossSnapshot).
func (s *DecisionSnapshot) Version() int64 { return s.version }

// NumGroups returns the number of multicast groups in the snapshot.
func (s *DecisionSnapshot) NumGroups() int { return len(s.dec.groups.nodes) }

// NumQuarantined returns how many groups this snapshot quarantines.
func (s *DecisionSnapshot) NumQuarantined() int { return len(s.dec.quarantined) }

// Quarantined reports whether group g is quarantined in this snapshot.
func (s *DecisionSnapshot) Quarantined(g int) bool { return s.dec.quarantined[g] }

// NumSubscriptions returns the live subscription count at snapshot time.
func (s *DecisionSnapshot) NumSubscriptions() int { return s.dec.tree.Len() }

// GroupNodes returns group g's member nodes. The slice is shared and must
// be treated as read-only.
func (s *DecisionSnapshot) GroupNodes(g int) []topology.NodeID {
	if g < 0 || g >= s.NumGroups() {
		panic(fmt.Sprintf("core: group %d out of range [0,%d)", g, s.NumGroups()))
	}
	return s.dec.groups.nodes[g]
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
//     subscription index and group table with its predecessor and swaps
//     in a fresh quarantine copy (cheap, O(quarantined));
//   - subscriptions or groups changed: the R*-tree is cloned in O(1) and
//     the subscription slice frozen at its current length. The clone shares
//     the index structurally: the engine's next Insert/Delete copies only
//     the nodes on its root-to-leaf path, O(path) per change, and its
//     appends never touch the frozen slice.
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
		dec = decider{
			threshold: e.cfg.Threshold,
			dynamic:   e.cfg.DynamicMethod,
			// Freeze the slice length: writer-side appends only ever write
			// at indices ≥ this length, which the snapshot never reads.
			// Capping the capacity too keeps any accidental append on the
			// snapshot side from aliasing the live array.
			subs:   e.world.Subs[:len(e.world.Subs):len(e.world.Subs)],
			tree:   e.tree.Clone(),
			groups: e.groups,
		}
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

// GridSnapshot builds a decision snapshot over a grid clustering computed
// outside an Engine: Fig 5 routing of w's subscriptions to res's groups.
// Of cfg it reads only Threshold and DynamicMethod. Overlays are built
// lazily through model. w, grid and res must not change while the
// snapshot is in use.
func GridSnapshot(w *workload.World, grid *space.Grid, res *cluster.Result, model *multicast.Model, cfg Config) (*DecisionSnapshot, error) {
	groups, err := gridGroups(w, grid, res, model)
	if err != nil {
		return nil, err
	}
	return detachedSnapshot(w, groups, cfg)
}

// NoLossSnapshot is GridSnapshot for Fig 6 routing to the k densest
// groups of a No-Loss result.
func NoLossSnapshot(w *workload.World, res *noloss.Result, k int, model *multicast.Model, cfg Config) (*DecisionSnapshot, error) {
	groups, err := noLossGroups(w, res, k, model)
	if err != nil {
		return nil, err
	}
	return detachedSnapshot(w, groups, cfg)
}

// detachedSnapshot indexes w's subscriptions for GridSnapshot and
// NoLossSnapshot and pairs them with a group table built over w.
func detachedSnapshot(w *workload.World, groups *groupTable, cfg Config) (*DecisionSnapshot, error) {
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("core: Threshold = %v, need [0,1]", cfg.Threshold)
	}
	tree, err := indexSubs(w)
	if err != nil {
		return nil, err
	}
	return &DecisionSnapshot{dec: decider{
		threshold: cfg.Threshold,
		dynamic:   cfg.DynamicMethod,
		subs:      w.Subs[:len(w.Subs):len(w.Subs)],
		tree:      tree,
		groups:    groups,
	}}, nil
}
