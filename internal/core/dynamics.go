package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/space"
	"repro/internal/workload"
)

// AddSubscription registers a new subscription and returns its slot id.
// The subscription takes effect immediately for matching; multicast groups
// are not recomputed until Refresh, so events for the new subscriber are
// topped up by unicast in the meantime (never lost). The Engine is marked
// stale.
func (e *Engine) AddSubscription(s workload.Subscription) (int, error) {
	if s.Rect.Dim() != e.world.Dim {
		return 0, fmt.Errorf("core: subscription dim %d, world dim %d", s.Rect.Dim(), e.world.Dim)
	}
	if s.Rect.Empty() {
		return 0, fmt.Errorf("core: empty subscription rectangle")
	}
	if s.Owner < 0 || int(s.Owner) >= e.graph.NumNodes() {
		return 0, fmt.Errorf("core: owner %d out of range", s.Owner)
	}
	slot := len(e.world.Subs)
	if err := e.tree.Insert(s.Rect, slot); err != nil {
		return 0, fmt.Errorf("core: indexing subscription: %w", err)
	}
	e.world.Subs = append(e.world.Subs, s)
	e.live[slot] = true
	e.stale = true
	e.dirtySubs = true
	e.tel.subsAdded.Inc()
	return slot, nil
}

// RemoveSubscription deletes a subscription by slot id. Removal takes
// effect immediately for matching; groups keep the (now uninterested)
// subscriber until Refresh, costing waste but never losing messages.
func (e *Engine) RemoveSubscription(slot int) error {
	if slot < 0 || slot >= len(e.world.Subs) || !e.live[slot] {
		return fmt.Errorf("core: no live subscription in slot %d", slot)
	}
	if !e.tree.Delete(e.world.Subs[slot].Rect, slot) {
		return fmt.Errorf("core: subscription %d missing from index", slot)
	}
	delete(e.live, slot)
	e.stale = true
	e.dirtySubs = true
	e.tel.subsRemoved.Inc()
	return nil
}

// LiveSlots returns the slot ids of all live subscriptions in ascending
// order — the order Refresh compacts them into slots 0..n-1. A caller
// tracking per-slot identity across a Refresh can therefore capture this
// before the call and remap afterwards: old slot LiveSlots()[i] becomes
// new slot i.
func (e *Engine) LiveSlots() []int {
	out := make([]int, 0, len(e.live))
	for slot := 0; slot < len(e.world.Subs); slot++ {
		if e.live[slot] {
			out = append(out, slot)
		}
	}
	return out
}

// Refresh recomputes multicast groups for the current subscription set.
// With warmIters > 0 and an iterative grid algorithm, the previous
// partition seeds the new one and only warmIters re-balancing passes run —
// the cheap dynamic update the paper recommends iterative clustering for.
// Otherwise groups are rebuilt from scratch.
func (e *Engine) Refresh(warmIters int) error {
	if e.tel.refreshNs != nil {
		defer e.tel.refreshNs.Start()()
		e.tel.refreshes.Inc()
	}
	// Compact the live subscriptions into the canonical slice.
	subs := make([]workload.Subscription, 0, len(e.live))
	for slot := 0; slot < len(e.world.Subs); slot++ {
		if e.live[slot] {
			subs = append(subs, e.world.Subs[slot])
		}
	}
	if len(subs) == 0 {
		return fmt.Errorf("core: refresh with zero live subscriptions")
	}
	e.subs = subs

	km, iterative := e.cfg.Algorithm.(*cluster.KMeans)
	if warmIters <= 0 || !iterative || e.cfg.NoLoss != nil || e.gridRes == nil {
		return e.rebuild()
	}

	// Carry the old cell→group mapping across the rebuild.
	oldCellGroup := e.gridRes.CellGroup

	t := time.Now()
	w, err := workload.NewCustomWorld(e.graph, e.axes, e.subs)
	if err != nil {
		return fmt.Errorf("core: world: %w", err)
	}
	grid, err := space.NewGrid(e.axes)
	if err != nil {
		return fmt.Errorf("core: grid: %w", err)
	}
	// Re-index: slots changed after compaction.
	if err := e.reindex(w, grid); err != nil {
		return err
	}
	e.build = BuildTimes{Index: lap(&t)}

	in, err := e.buildInput(w, grid)
	if err != nil {
		return fmt.Errorf("core: clustering input: %w", err)
	}
	e.build.Input = lap(&t)
	initial := make(cluster.Assignment, len(in.Cells))
	for ci := range in.Cells {
		initial[ci] = majorityGroup(in.Cells[ci].Cells, oldCellGroup, e.cfg.Groups)
	}
	assign, err := km.ClusterWarm(in, e.cfg.Groups, initial, warmIters)
	if err != nil {
		return fmt.Errorf("core: warm clustering: %w", err)
	}
	e.build.Cluster = lap(&t)
	if err := e.adoptGridAssignment(in, assign); err != nil {
		return err
	}
	e.build.Groups = lap(&t)
	return nil
}

// majorityGroup picks the most common old group among the hyper-cell's
// grid cells, or -1 when none were previously clustered or the winner is
// out of range.
func majorityGroup(cells []space.CellID, old map[space.CellID]int, k int) int {
	counts := map[int]int{}
	best, bestN := -1, 0
	for _, id := range cells {
		g, ok := old[id]
		if !ok {
			continue
		}
		counts[g]++
		if counts[g] > bestN {
			best, bestN = g, counts[g]
		}
	}
	if best >= k {
		return -1
	}
	return best
}
