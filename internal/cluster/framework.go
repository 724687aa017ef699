// Package cluster implements the paper's grid-based subscription clustering
// framework (§4.1) and its four partitional algorithms: K-Means (MacQueen),
// Forgy K-Means, Pairwise Grouping with its secretary-rule approximation,
// and MST (Kruskal-stopped-at-K) clustering.
//
// The framework rasterises subscription rectangles onto a regular grid,
// attaches to every cell a subscriber membership vector s(a) and an
// empirical publication probability p(a), coalesces cells with identical
// membership into hyper-cells, ranks hyper-cells by popularity
// r(a) = p(a)·|s(a)|, and feeds the top CellBudget of them to a clustering
// algorithm that partitions them into K multicast groups minimising
// expected waste:
//
//	d(a, b) = p(a)·|s(a)∖s(b)| + p(b)·|s(b)∖s(a)|
//
// — the expected number of messages delivered to uninterested subscribers
// if a and b share one group.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/bitset"
	"repro/internal/space"
	"repro/internal/workload"
)

// HyperCell is a set of grid cells sharing one membership vector.
type HyperCell struct {
	// Cells lists the coalesced grid cell ids.
	Cells []space.CellID
	// Members is the subscriber membership vector s(a).
	Members *bitset.Set
	// Prob is the empirical publication probability mass of the cells.
	Prob float64
}

// Rating is the paper's popularity rating r(a) = p(a)·|s(a)|.
func (h *HyperCell) Rating() float64 {
	return h.Prob * float64(h.Members.Count())
}

// Input is the prepared clustering problem: hyper-cells sorted by
// decreasing popularity rating.
type Input struct {
	Cells          []HyperCell
	NumSubscribers int
	// TotalHyperCells counts hyper-cells before the cell-budget cut.
	TotalHyperCells int
}

// Assignment maps each Input cell index to a group in [0, K).
type Assignment []int

// Algorithm is a subscription clustering algorithm.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Cluster partitions in.Cells into at most k groups.
	Cluster(in *Input, k int) (Assignment, error)
}

// Dist is the expected-waste distance between two (hyper-)cells or groups
// with probabilities pa, pb and membership vectors sa, sb. The two AND-NOT
// population counts come out of one fused word loop (bitset.WastePair).
func Dist(pa float64, sa *bitset.Set, pb float64, sb *bitset.Set) float64 {
	aNotB, bNotA := sa.WastePair(sb)
	return pa*float64(aNotB) + pb*float64(bNotA)
}

// BuildInput rasterises the world's subscriptions onto the grid, estimates
// per-cell publication probabilities from the training events, coalesces
// hyper-cells and applies the cell budget (0 = keep everything). The
// returned Input is what every Algorithm consumes.
func BuildInput(w *workload.World, grid *space.Grid, train []workload.Event, budget int) (*Input, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("cluster: no training events for probability estimation")
	}
	// Empirical p(a): fraction of training events landing in each cell.
	var counts map[space.CellID]int
	prep := func() {
		counts = make(map[space.CellID]int, len(train))
		for _, e := range train {
			if id, ok := grid.Locate(e.Point); ok {
				counts[id]++
			}
		}
	}
	norm := 1 / float64(len(train))
	return buildInput(w, grid, budget, prep, func(id space.CellID) float64 {
		return float64(counts[id]) * norm
	})
}

// BuildInputAnalytic is BuildInput with closed-form cell probabilities
// instead of an event sample: probOf must return the publication
// probability mass of a rectangle (e.g. World.AnalyticCellProb for the
// generated workloads, whose publication models are product-form).
func BuildInputAnalytic(w *workload.World, grid *space.Grid, probOf func(space.Rect) float64, budget int) (*Input, error) {
	if probOf == nil {
		return nil, fmt.Errorf("cluster: nil probability function")
	}
	return buildInput(w, grid, budget, func() {}, func(id space.CellID) float64 {
		return probOf(grid.CellRect(id))
	})
}

// buildInput is the shared core: prep runs once before cellProb is
// consulted per materialised cell.
func buildInput(w *workload.World, grid *space.Grid, budget int, prep func(), cellProb func(space.CellID) float64) (*Input, error) {
	if w == nil || grid == nil {
		return nil, fmt.Errorf("cluster: nil world or grid")
	}
	if grid.Dim() != w.Dim {
		return nil, fmt.Errorf("cluster: grid dim %d vs world dim %d", grid.Dim(), w.Dim)
	}
	if budget < 0 {
		return nil, fmt.Errorf("cluster: negative cell budget %d", budget)
	}
	ns := w.NumSubscribers()
	if ns == 0 {
		return nil, fmt.Errorf("cluster: world has no subscribers")
	}

	// Rasterise subscriptions: cell → membership vector, indexed by cell id.
	members := make([]*bitset.Set, grid.NumCells())
	for _, sub := range w.Subs {
		idx, ok := w.SubscriberIndex(sub.Owner)
		if !ok {
			return nil, fmt.Errorf("cluster: subscription owner %d not indexed", sub.Owner)
		}
		grid.ForEachCellIn(sub.Rect, func(id space.CellID) {
			s := members[id]
			if s == nil {
				s = bitset.New(ns)
				members[id] = s
			}
			s.Set(idx)
		})
	}

	prep()

	// Coalesce cells with identical membership vectors into hyper-cells.
	byHash := make(map[uint64][]int)
	var cells []HyperCell
	for i, s := range members {
		if s == nil {
			continue
		}
		id := space.CellID(i)
		p := cellProb(id)
		h := s.Hash()
		found := false
		for _, ci := range byHash[h] {
			if cells[ci].Members.Equal(s) {
				cells[ci].Cells = append(cells[ci].Cells, id)
				cells[ci].Prob += p
				found = true
				break
			}
		}
		if !found {
			byHash[h] = append(byHash[h], len(cells))
			cells = append(cells, HyperCell{Cells: []space.CellID{id}, Members: s, Prob: p})
		}
	}
	total := len(cells)

	// Rank by popularity and apply the budget. Each rating is computed
	// once; the cells were made in ascending first-cell-id order, so a
	// stable sort breaks rating ties by first cell id, deterministically.
	type rankedCell struct {
		rating float64
		ci     int
	}
	rank := make([]rankedCell, len(cells))
	for i := range cells {
		rank[i] = rankedCell{cells[i].Rating(), i}
	}
	slices.SortStableFunc(rank, func(a, b rankedCell) int { return cmp.Compare(b.rating, a.rating) })
	if budget > 0 && len(rank) > budget {
		rank = rank[:budget]
	}
	ranked := make([]HyperCell, len(rank))
	for i, r := range rank {
		ranked[i] = cells[r.ci]
	}
	return &Input{Cells: ranked, NumSubscribers: ns, TotalHyperCells: total}, nil
}

// Group is one multicast group produced by clustering: the union membership
// vector of its cells and the grid cells it covers.
type Group struct {
	Members *bitset.Set
	Prob    float64
	Cells   []space.CellID
}

// Result couples the groups with the cell→group index used for matching.
type Result struct {
	Groups []Group
	// CellGroup maps every clustered grid cell to its group index. Grid
	// cells absent from the map fall back to unicast.
	CellGroup map[space.CellID]int
}

// BuildResult materialises groups from an assignment. Group indices are
// compacted: empty groups are dropped.
func BuildResult(in *Input, assign Assignment) (*Result, error) {
	if len(assign) != len(in.Cells) {
		return nil, fmt.Errorf("cluster: assignment length %d for %d cells", len(assign), len(in.Cells))
	}
	remap := map[int]int{}
	res := &Result{CellGroup: make(map[space.CellID]int)}
	for ci, gi := range assign {
		if gi < 0 {
			return nil, fmt.Errorf("cluster: cell %d unassigned", ci)
		}
		g, ok := remap[gi]
		if !ok {
			g = len(res.Groups)
			remap[gi] = g
			res.Groups = append(res.Groups, Group{Members: bitset.New(in.NumSubscribers)})
		}
		grp := &res.Groups[g]
		grp.Members.UnionWith(in.Cells[ci].Members)
		grp.Prob += in.Cells[ci].Prob
		grp.Cells = append(grp.Cells, in.Cells[ci].Cells...)
		for _, id := range in.Cells[ci].Cells {
			res.CellGroup[id] = g
		}
	}
	return res, nil
}

// ExpectedWaste evaluates the clustering objective for an assignment: the
// expected number of deliveries to uninterested subscribers per event,
// Σ_cells p(a)·|s(G(a))∖s(a)|.
func ExpectedWaste(in *Input, assign Assignment) (float64, error) {
	res, err := BuildResult(in, assign)
	if err != nil {
		return 0, err
	}
	remapped := make(Assignment, len(assign))
	for ci := range assign {
		remapped[ci] = res.CellGroup[in.Cells[ci].Cells[0]]
	}
	waste := 0.0
	for ci, gi := range remapped {
		waste += in.Cells[ci].Prob * float64(res.Groups[gi].Members.AndNotCount(in.Cells[ci].Members))
	}
	return waste, nil
}

// validateK rejects unusable group counts.
func validateK(in *Input, k int) error {
	if in == nil || len(in.Cells) == 0 {
		return fmt.Errorf("cluster: empty input")
	}
	if k < 1 {
		return fmt.Errorf("cluster: k = %d, need ≥ 1", k)
	}
	return nil
}

// singletonAssignment is the degenerate solution when k ≥ #cells: one group
// per hyper-cell.
func singletonAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = i
	}
	return a
}
