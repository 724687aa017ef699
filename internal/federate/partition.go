package federate

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/space"
	"repro/internal/workload"
)

// Partition is an ordered list of disjoint shard tiles. A router owns
// one shard per tile; tile i is shard i's responsibility rectangle, so
// every event point has at most one owner. Derive produces tiles whose
// union is all of Ω (outermost tiles are unbounded, so no event point
// can fall between the cracks); a hand-built partition may leave gaps,
// and a publish into one fails.
type Partition []space.Rect

// Dim returns the tiles' dimensionality.
func (p Partition) Dim() int {
	if len(p) == 0 {
		return 0
	}
	return len(p[0])
}

// Validate checks the tile list is usable by a router: non-empty, every
// tile non-empty and of equal dimensionality, and no two tiles
// overlapping, so no event point has two owners.
func (p Partition) Validate() error {
	if len(p) == 0 {
		return fmt.Errorf("federate: partition has no tiles")
	}
	dim := len(p[0])
	for i, t := range p {
		if len(t) != dim {
			return fmt.Errorf("federate: tile %d has dim %d, want %d", i, len(t), dim)
		}
		for d, iv := range t {
			if iv.Empty() {
				return fmt.Errorf("federate: tile %d is empty along dim %d", i, d)
			}
		}
		for j := range p[:i] {
			if t.Intersects(p[j]) {
				return fmt.Errorf("federate: tiles %d and %d overlap", j, i)
			}
		}
	}
	return nil
}

// Owner returns the index of the tile containing point pt, or -1 when
// no tile does.
func (p Partition) Owner(pt space.Point) int {
	for i, t := range p {
		if t.Contains(pt) {
			return i
		}
	}
	return -1
}

// Covering appends to dst the indices of tiles intersecting rect — the
// shards a subscription with that rectangle must be registered on.
func (p Partition) Covering(dst []int, rect space.Rect) []int {
	for i, t := range p {
		if t.Intersects(rect) {
			dst = append(dst, i)
		}
	}
	return dst
}

// TileWorld restricts w to the subscriptions intersecting tile — the
// world one shard serves. Deployments derive the partition once from
// the full world, then build each shard's engine over its tile world
// (with the shared training stream, so clustering statistics agree).
func TileWorld(w *workload.World, tile space.Rect) (*workload.World, error) {
	var subs []workload.Subscription
	for _, s := range w.Subs {
		if s.Rect.Intersects(tile) {
			subs = append(subs, s)
		}
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("federate: tile %v intersects no subscriptions", tile)
	}
	return workload.NewCustomWorld(w.Graph, w.Axes, subs)
}

// Derive splits the workload's event space into `shards` disjoint
// rectangles of roughly equal subscriber load, k-d-tree style: it
// rasterises the subscriptions onto the workload grid with the
// clustering framework (the same per-cell membership vectors and
// empirical publication probabilities the group builder uses), weights
// every grid cell by its popularity rating r(a) = p(a)·|s(a)|, and then
// recursively halves the cell box along the axis boundary that best
// balances the weight. shards must be a power of two ≥ 1.
//
// Splits land only on grid-cell boundaries, and the outermost tiles are
// extended to ±∞, so the tiles exactly tile Ω; a subscription or event
// outside the grid's trained bounds still has an owner.
func Derive(w *workload.World, train []workload.Event, shards int) (Partition, error) {
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("federate: shard count %d is not a power of two ≥ 1", shards)
	}
	dim := len(w.Axes)
	if dim == 0 {
		return nil, fmt.Errorf("federate: workload has no axes")
	}
	if shards == 1 {
		return Partition{space.FullRect(dim)}, nil
	}
	grid, err := space.NewGrid(w.Axes)
	if err != nil {
		return nil, err
	}
	// Budget 0 would truncate to the framework default; the split wants
	// the full weight field, so ask for every cell.
	in, err := cluster.BuildInput(w, grid, train, grid.NumCells())
	if err != nil {
		return nil, err
	}
	// Spread each hyper-cell's rating evenly over its grid cells, plus a
	// small uniform prior so regions with no trained weight still split
	// geometrically instead of collapsing to zero-width choices.
	weight := make([]float64, grid.NumCells())
	for i := range weight {
		weight[i] = 1e-9
	}
	for i := range in.Cells {
		h := &in.Cells[i]
		per := h.Rating() / float64(len(h.Cells))
		for _, id := range h.Cells {
			weight[int(id)] += per
		}
	}

	axes := w.Axes
	lo := make([]int, dim)
	hi := make([]int, dim) // inclusive cell-index bounds per dimension
	for d := range hi {
		hi[d] = axes[d].Cells - 1
	}
	var out Partition
	var split func(lo, hi []int, n int)
	split = func(lo, hi []int, n int) {
		if n == 1 {
			out = append(out, tileOf(axes, lo, hi))
			return
		}
		d, cut := bestCut(grid, weight, lo, hi)
		leftHi := append([]int(nil), hi...)
		leftHi[d] = cut - 1
		rightLo := append([]int(nil), lo...)
		rightLo[d] = cut
		split(lo, leftHi, n/2)
		split(rightLo, hi, n/2)
	}
	split(lo, hi, shards)
	return out, nil
}

// bestCut picks the axis d and boundary index cut ∈ (lo[d], hi[d]] that
// most evenly halves the region's weight. Ties (and weightless regions)
// fall back to halving the axis with the most cells.
func bestCut(grid *space.Grid, weight []float64, lo, hi []int) (axis, cut int) {
	axes := grid.Axes()
	bestScore := math.Inf(1)
	axis, cut = -1, -1
	for d := range axes {
		if hi[d] <= lo[d] {
			continue // single cell wide: nothing to cut
		}
		marg := marginal(grid, weight, lo, hi, d)
		total := 0.0
		for _, v := range marg {
			total += v
		}
		left := 0.0
		for i := 0; i < len(marg)-1; i++ {
			left += marg[i]
			imbalance := math.Abs(2*left - total)
			// Prefer cuts near the index midpoint on near-ties, so a flat
			// weight field degrades to a plain midpoint k-d split.
			mid := float64(len(marg)) / 2
			score := imbalance + 1e-12*math.Abs(float64(i+1)-mid)
			if score < bestScore {
				bestScore = score
				axis, cut = d, lo[d]+i+1
			}
		}
	}
	if axis < 0 {
		// Region is one cell in every splittable dimension; halve the
		// widest axis anyway (duplicate-index tiles stay non-empty only
		// when the caller over-shards a tiny grid — Validate catches it).
		widest := 0
		for d := 1; d < len(axes); d++ {
			if hi[d]-lo[d] > hi[widest]-lo[widest] {
				widest = d
			}
		}
		return widest, lo[widest] + (hi[widest]-lo[widest]+1)/2
	}
	return axis, cut
}

// marginal sums the region's cell weights along axis d, producing one
// bucket per cell index in [lo[d], hi[d]].
func marginal(grid *space.Grid, weight []float64, lo, hi []int, d int) []float64 {
	out := make([]float64, hi[d]-lo[d]+1)
	coords := append([]int(nil), lo...)
	axes := grid.Axes()
	for {
		id := 0
		for k := range axes {
			id = id*axes[k].Cells + coords[k]
		}
		out[coords[d]-lo[d]] += weight[id]
		// Odometer over the region, last dimension fastest.
		k := len(coords) - 1
		for k >= 0 {
			coords[k]++
			if coords[k] <= hi[k] {
				break
			}
			coords[k] = lo[k]
			k--
		}
		if k < 0 {
			return out
		}
	}
}

// tileOf converts inclusive cell-index bounds into a tile rectangle.
// Interior edges land exactly on grid boundaries; edges touching the
// grid border extend to ±∞ so the partition covers all of Ω.
func tileOf(axes []space.Axis, lo, hi []int) space.Rect {
	r := make(space.Rect, len(axes))
	for d, a := range axes {
		w := (a.Hi - a.Lo) / float64(a.Cells)
		iv := space.Interval{
			Lo: a.Lo + float64(lo[d])*w,
			Hi: a.Lo + float64(hi[d]+1)*w,
		}
		if lo[d] == 0 {
			iv.Lo = math.Inf(-1)
		}
		if hi[d] == a.Cells-1 {
			iv.Hi = math.Inf(1)
		}
		r[d] = iv
	}
	return r
}
