package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/space"
)

// buildFill is the number of entries Build aims to put in a node: about
// 70 % of M. Nodes packed full would split on almost every later insert;
// at this fill a node takes five insertions before it splits.
const buildFill = 11

// Build bulk-loads a tree over rects, giving rects[i] the id i, by
// Sort-Tile-Recursive packing (Leutenegger, Lopez, Edgington, ICDE 1997),
// applied top down. Each node cuts its rectangles into one run per child:
// it sorts them on the centres of the first axis, cuts them into slabs,
// and tiles each slab the same way on the next axis. Centres are taken on
// the extent-clamped sides, so wildcard rectangles sort by their bounded
// ends. Runs differ in size by at most one, which keeps every non-root
// node between m and buildFill entries. Nodes are allocated depth first,
// so a search walks each subtree forward in memory. Empty rectangles and
// ones of another dimension are rejected.
func Build(dim int, rects []space.Rect) (*Tree, error) {
	t := New(dim)
	ext := make([]space.Interval, dim)
	for d := range ext {
		ext[d] = space.Interval{Lo: math.Inf(1), Hi: math.Inf(-1)}
	}
	es := make([]entry, len(rects))
	for i, r := range rects {
		if err := t.check(r); err != nil {
			return nil, fmt.Errorf("%w at index %d", err, i)
		}
		ext = widen(ext, r)
		es[i] = entry{rect: clampRect(r), data: i}
	}
	settle(ext)
	t.ext, t.size = ext, len(rects)

	// The root sits at the lowest level whose children can hold every
	// entry in at most M subtrees of per = buildFill^level entries each.
	level, per := 0, 1
	for len(es) > maxEntries*per {
		level, per = level+1, per*buildFill
	}
	b := loader{t: t, es: es, centres: make([]float64, len(es)*dim)}
	for i := range es {
		for d := 0; d < dim; d++ {
			b.centres[i*dim+d] = centre(es[i].rect, ext, d)
		}
	}
	ids := make([]int, len(es))
	for i := range ids {
		ids[i] = i
	}
	t.root = b.subtree(ids, level, per)
	return t, nil
}

// loader holds the state of one Build: the leaf entries by id and their
// extent-clamped centres, centres[i*dim+d] on axis d.
type loader struct {
	t       *Tree
	es      []entry
	centres []float64
}

// subtree builds the node at the given level over the leaf entries ids,
// whose child subtrees hold at most per entries each (per = buildFill^level).
func (b *loader) subtree(ids []int, level, per int) *node {
	n := &node{gen: b.t.gen, leaf: level == 0, level: level}
	if level == 0 {
		n.entries = make([]entry, len(ids))
		for i, id := range ids {
			n.entries[i] = b.es[id]
		}
		return n
	}
	g := (len(ids) + per - 1) / per
	b.tile(ids, g, 0, g, 0)
	n.entries = make([]entry, g)
	for j := range n.entries {
		child := b.subtree(ids[cut(len(ids), g, j):cut(len(ids), g, j+1)], level-1, per/buildFill)
		n.entries[j] = entry{rect: mbrOf(child.entries), child: child}
	}
	return n
}

// cut is where run j of g equal runs over n entries starts.
func cut(n, g, j int) int { return j * n / g }

// tile orders ids, the entries of a node to be cut into g runs, so that
// each of the runs lo to hi-1 covers one tile of space. It sorts their
// entries on the centres of axis and, unless axis is the last, groups the
// runs into slabs, as many as the (dim-axis)-th root of their count
// rounded up, and tiles each slab on the next axis.
func (b *loader) tile(ids []int, g, lo, hi, axis int) {
	if hi-lo == 1 {
		return
	}
	dim := b.t.dim
	run := ids[cut(len(ids), g, lo):cut(len(ids), g, hi)]
	slices.SortFunc(run, func(x, y int) int {
		if c := cmp.Compare(b.centres[x*dim+axis], b.centres[y*dim+axis]); c != 0 {
			return c
		}
		return x - y
	})
	if axis == dim-1 {
		return
	}
	runs := hi - lo
	slabs := iroot(runs, dim-axis)
	for s := 0; s < slabs; s++ {
		if a, z := lo+s*runs/slabs, lo+(s+1)*runs/slabs; a < z {
			b.tile(ids, g, a, z, axis+1)
		}
	}
}

// iroot returns the least s with s^k ≥ n.
func iroot(n, k int) int {
	s := 1
	for {
		p := 1
		for i := 0; i < k && p < n; i++ {
			p *= s
		}
		if p >= n {
			return s
		}
		s++
	}
}
