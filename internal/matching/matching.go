// Package matching solves the runtime half of the pub-sub problem: mapping
// each published event to (a) the exact set of interested subscriptions and
// (b) the multicast group a clustering solution routes it to.
//
// Exact subscription matching is offered in two interchangeable
// implementations — a linear-scan oracle and an R*-tree index (the paper's
// matching substrate, refs [5] and [16]). Group lookup comes in two
// flavours mirroring the two clustering families: a grid lookup (Fig 5)
// and a highest-weight-containing-rectangle lookup for No-Loss groups
// (Fig 6).
package matching

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/noloss"
	"repro/internal/rtree"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// SubscriptionMatcher finds all subscriptions containing an event point.
// Implementations return indices into the World.Subs slice, sorted
// ascending.
type SubscriptionMatcher interface {
	Match(p space.Point) []int
}

// Brute is the O(k) linear-scan oracle matcher.
type Brute struct {
	w *workload.World
}

// NewBrute creates a brute-force matcher over the world's subscriptions.
func NewBrute(w *workload.World) *Brute { return &Brute{w: w} }

// Match implements SubscriptionMatcher.
func (b *Brute) Match(p space.Point) []int {
	var out []int
	for i, s := range b.w.Subs {
		if s.Rect.Contains(p) {
			out = append(out, i)
		}
	}
	return out
}

// RTree is the indexed matcher: an R*-tree over subscription rectangles.
type RTree struct {
	w    *workload.World
	tree *rtree.Tree
}

// NewRTree bulk-loads the index in O(k log k); matching a point is then
// sublinear in the subscription count.
func NewRTree(w *workload.World) (*RTree, error) {
	if w == nil || len(w.Subs) == 0 {
		return nil, fmt.Errorf("matching: empty world")
	}
	rects := make([]space.Rect, len(w.Subs))
	for i, s := range w.Subs {
		rects[i] = s.Rect
	}
	t, err := rtree.Build(w.Dim, rects)
	if err != nil {
		return nil, fmt.Errorf("matching: indexing subscriptions: %w", err)
	}
	return &RTree{w: w, tree: t}, nil
}

// Match implements SubscriptionMatcher.
func (t *RTree) Match(p space.Point) []int {
	out := t.tree.SearchPoint(p)
	sort.Ints(out)
	return out
}

// InterestedNodes deduplicates matched subscriptions into the distinct
// interested subscriber nodes, in increasing node order.
func InterestedNodes(w *workload.World, subIdx []int) []topology.NodeID {
	seen := map[topology.NodeID]bool{}
	var out []topology.NodeID
	for _, i := range subIdx {
		n := w.Subs[i].Owner
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GridIndex routes events to grid-based multicast groups (Fig 5): locate
// the event's grid cell; if the cell was clustered, the cell's group
// receives the event.
type GridIndex struct {
	grid *space.Grid
	res  *cluster.Result
}

// NewGridIndex wraps a clustering result for matching.
func NewGridIndex(grid *space.Grid, res *cluster.Result) (*GridIndex, error) {
	if grid == nil || res == nil {
		return nil, fmt.Errorf("matching: nil grid or result")
	}
	return &GridIndex{grid: grid, res: res}, nil
}

// GroupFor returns the multicast group index for the event point, or
// ok=false when the event falls outside the grid or in an unclustered cell
// (unicast fallback).
func (g *GridIndex) GroupFor(p space.Point) (int, bool) {
	id, ok := g.grid.Locate(p)
	if !ok {
		return 0, false
	}
	gi, ok := g.res.CellGroup[id]
	return gi, ok
}

// NoLossIndex routes events to No-Loss groups (Fig 6): among the K group
// rectangles containing the event, pick the one with the greatest density
// w(s). Group rectangles are indexed in an R*-tree.
type NoLossIndex struct {
	groups []noloss.Group
	tree   *rtree.Tree
}

// NewNoLossIndex indexes the first k groups of a No-Loss result (the
// paper's list A truncated to the available multicast groups). The groups
// slice must be weight-sorted as returned by noloss.Build.
func NewNoLossIndex(res *noloss.Result, k int) (*NoLossIndex, error) {
	if res == nil {
		return nil, fmt.Errorf("matching: nil no-loss result")
	}
	if k <= 0 {
		return nil, fmt.Errorf("matching: k = %d, need ≥ 1", k)
	}
	if k > len(res.Groups) {
		k = len(res.Groups)
	}
	if k == 0 {
		return nil, fmt.Errorf("matching: no-loss result has no groups")
	}
	groups := res.Groups[:k]
	rects := make([]space.Rect, len(groups))
	for i, g := range groups {
		rects[i] = g.Rect
	}
	tree, err := rtree.Build(groups[0].Rect.Dim(), rects)
	if err != nil {
		return nil, fmt.Errorf("matching: indexing no-loss groups: %w", err)
	}
	return &NoLossIndex{groups: groups, tree: tree}, nil
}

// Groups returns the indexed groups.
func (n *NoLossIndex) Groups() []noloss.Group { return n.groups }

// GroupFor returns the highest-weight group whose region contains p, or
// ok=false when no group region contains the event.
func (n *NoLossIndex) GroupFor(p space.Point) (int, bool) {
	hits := n.tree.SearchPoint(p)
	if len(hits) == 0 {
		return 0, false
	}
	// Groups are weight-sorted, so the smallest index wins.
	best := hits[0]
	for _, h := range hits[1:] {
		if h < best {
			best = h
		}
	}
	return best, true
}
