// Package rtree implements an R*-tree (Beckmann, Kriegel, Schneider,
// Seeger, SIGMOD 1990 — the paper's ref [5]) over axis-aligned half-open
// rectangles. The pub-sub matching problem reduces to point-stabbing
// queries: given an event ω, find all subscription rectangles containing
// it. The tree supports Sort-Tile-Recursive bulk loading (Build), insertion
// with forced reinsertion, the R* split heuristic, deletion with tree
// condensation, and point/rect queries. It is persistent by path copying:
// Clone is O(1), and a change copies only the nodes on its root-to-leaf
// path, so a clone handed to readers stays frozen while the writer keeps
// changing the original.
//
// Rectangles may have infinite sides (wildcard predicates). Stored
// rectangles clamp them to ±maxCoord, which preserves all containment
// relations for queries with coordinates inside (-maxCoord, maxCoord]. The
// R* heuristics (area, margin, overlap, centre) never see that clamp: on
// ±maxCoord sides every area that includes one is ~1e293, +Inf or NaN and
// every choice between such entries is arbitrary, so the index stops
// pruning. They clamp unbounded sides instead into the tree's extent, the
// finite hull of the bounded sides it has stored, where wildcard
// rectangles are large but comparable.
package rtree

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/space"
)

const (
	maxEntries    = 16                     // M
	minEntries    = 6                      // m ≈ 40% of M
	reinsertCount = 5                      // p ≈ 30% of M, entries re-inserted on first overflow
	maxCoord      = math.MaxFloat64 / 1e16 // clamp for infinite rectangle sides
)

type entry struct {
	rect  space.Rect // clamped MBR
	child *node      // nil at leaves
	data  int        // user id, valid at leaves
}

// node is one tree node. Only the tree whose generation it carries may
// write it in place; any other tree that reaches it shares it read-only and
// copies it before a change (see ownPath).
type node struct {
	gen     uint64
	leaf    bool
	level   int // 0 at leaves
	entries []entry
}

// Tree is a persistent R*-tree mapping rectangles to integer ids: Clone is
// O(1) and a later change copies only the nodes on its root-to-leaf path.
// The zero value is not usable; call New.
type Tree struct {
	dim  int
	root *node
	size int
	gen  uint64 // nodes carrying this generation are owned by this tree
	// ext is the box the R* heuristics clamp unbounded sides into: it
	// covers every bounded side the tree has stored and has positive width
	// on each axis. Any such box answers queries correctly; a tight one
	// prunes best. It is never written in place (growing it installs a new
	// slice), so clones share it.
	ext []space.Interval
}

// New creates an empty tree over dim-dimensional rectangles.
func New(dim int) *Tree {
	if dim <= 0 {
		panic(fmt.Sprintf("rtree: dimension %d", dim))
	}
	gen := nextGen()
	ext := make([]space.Interval, dim)
	settle(ext) // [0, 1] on every axis until bounded sides arrive
	return &Tree{dim: dim, root: &node{gen: gen, leaf: true}, gen: gen, ext: ext}
}

// Len returns the number of stored rectangles.
func (t *Tree) Len() int { return t.size }

// Dim returns the tree's dimensionality.
func (t *Tree) Dim() int { return t.dim }

// clampRect copies r with infinite sides clamped to ±maxCoord.
func clampRect(r space.Rect) space.Rect {
	out := make(space.Rect, len(r))
	for i, iv := range r {
		lo, hi := iv.Lo, iv.Hi
		if lo < -maxCoord {
			lo = -maxCoord
		}
		if hi > maxCoord {
			hi = maxCoord
		}
		out[i] = space.Interval{Lo: lo, Hi: hi}
	}
	return out
}

// bounded reports whether v is a side the extent must cover: one that
// clampRect leaves as it is.
func bounded(v float64) bool { return v > -maxCoord && v < maxCoord }

// covers reports whether ext holds every bounded side of r.
func covers(ext []space.Interval, r space.Rect) bool {
	for d, iv := range r {
		for _, v := range [2]float64{iv.Lo, iv.Hi} {
			if bounded(v) && (v < ext[d].Lo || v > ext[d].Hi) {
				return false
			}
		}
	}
	return true
}

// widen returns ext grown to hold every bounded side of r. It grows a
// copy, so a slice that clones share is never written.
func widen(ext []space.Interval, r space.Rect) []space.Interval {
	if covers(ext, r) {
		return ext
	}
	ext = slices.Clone(ext)
	for d, iv := range r {
		for _, v := range [2]float64{iv.Lo, iv.Hi} {
			if bounded(v) {
				ext[d].Lo, ext[d].Hi = min(ext[d].Lo, v), max(ext[d].Hi, v)
			}
		}
	}
	return ext
}

// settle gives every axis of ext a positive width: an axis no bounded side
// reached becomes [0, 1] and a single-valued one [v, v+max(1, |v|)].
// Unbounded sides then clamp to a finite, non-zero length on every axis,
// so the area of a rectangle still ranks it against its siblings.
func settle(ext []space.Interval) {
	for d := range ext {
		switch {
		case ext[d].Lo > ext[d].Hi:
			ext[d] = space.Interval{Lo: 0, Hi: 1}
		case !(ext[d].Lo < ext[d].Hi):
			ext[d].Hi = ext[d].Lo + max(1, math.Abs(ext[d].Lo))
		}
	}
}

// check rejects a rectangle of the wrong dimension or an empty one.
func (t *Tree) check(r space.Rect) error {
	if r.Dim() != t.dim {
		return fmt.Errorf("rtree: rect dim %d, tree dim %d", r.Dim(), t.dim)
	}
	if r.Empty() {
		return fmt.Errorf("rtree: empty rectangle %v", r)
	}
	return nil
}

// Insert adds a rectangle with the given id. Empty rectangles are rejected.
func (t *Tree) Insert(r space.Rect, id int) error {
	if err := t.check(r); err != nil {
		return err
	}
	t.ext = widen(t.ext, r)
	var reinserted uint64
	t.insert(entry{rect: clampRect(r), data: id}, 0, &reinserted)
	t.size++
	return nil
}

// pathBuf sizes the stack buffer a root-to-node path starts in. A tree of
// height 16 holds at least 2·6^15 entries, so the buffer never grows.
const pathBuf = 16

// insert places e at the given level (0 = leaf). reinserted is the bitmask
// of levels that already had their forced reinsertion during the current
// top-level insertion.
func (t *Tree) insert(e entry, level int, reinserted *uint64) {
	var buf [pathBuf]*node
	path := t.ownPath(t.chooseSubtree(e.rect, level, buf[:0]))
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	if len(n.entries) > maxEntries {
		t.overflow(path, reinserted)
	} else {
		adjustUp(path)
	}
}

// adjustUp recomputes the MBRs along an owned root-to-node path, from its
// last node up to the root.
func adjustUp(path []*node) {
	for k := len(path) - 1; k > 0; k-- {
		parent, child := path[k-1], path[k]
		parent.entries[childIndex(parent, child)].rect = mbrOf(child.entries)
	}
}

// childIndex returns the index of parent's entry pointing at child.
func childIndex(parent, child *node) int {
	for j := range parent.entries {
		if parent.entries[j].child == child {
			return j
		}
	}
	panic("rtree: child missing from its parent")
}

// chooseSubtree appends to path the nodes from the root down to the node at
// the target level that should receive a rectangle, using the R* criteria.
// It only reads the tree.
func (t *Tree) chooseSubtree(r space.Rect, level int, path []*node) []*node {
	n := t.root
	path = append(path, n)
	for n.level > level {
		childrenAreLeaves := n.level == 1
		best := -1
		var bestOverlap, bestEnl, bestArea float64
		for i := range n.entries {
			enl := enlargement(n.entries[i].rect, r, t.ext)
			area := areaOf(n.entries[i].rect, t.ext)
			var overlap float64
			if childrenAreLeaves {
				overlap = overlapEnlargement(n.entries, i, r, t.ext)
			}
			better := false
			switch {
			case best == -1:
				better = true
			case childrenAreLeaves && overlap != bestOverlap:
				better = overlap < bestOverlap
			case enl != bestEnl:
				better = enl < bestEnl
			default:
				better = area < bestArea
			}
			if better {
				best, bestOverlap, bestEnl, bestArea = i, overlap, enl, area
			}
		}
		n = n.entries[best].child
		path = append(path, n)
	}
	return path
}

// overflow handles the last node of path when it holds M+1 entries: forced
// reinsertion on the first overflow at each level per insertion, split
// otherwise.
func (t *Tree) overflow(path []*node, reinserted *uint64) {
	n := path[len(path)-1]
	if bit := uint64(1) << n.level; n != t.root && *reinserted&bit == 0 {
		*reinserted |= bit
		t.reinsert(path, reinserted)
		return
	}
	t.split(path, reinserted)
}

// reinsert removes the p entries of path's last node whose centers lie
// farthest from the node MBR center and re-inserts them (close reinsert:
// nearest first).
func (t *Tree) reinsert(path []*node, reinserted *uint64) {
	n := path[len(path)-1]
	mbr := mbrOf(n.entries)
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		d := 0.0
		for k := range mbr {
			dd := centre(e.rect, t.ext, k) - centre(mbr, t.ext, k)
			d += dd * dd
		}
		des[i] = distEntry{e: e, d: d}
	}
	slices.SortStableFunc(des, func(x, y distEntry) int { return cmp.Compare(x.d, y.d) })
	keep := len(des) - reinsertCount
	n.entries = n.entries[:0]
	for i := 0; i < keep; i++ {
		n.entries = append(n.entries, des[i].e)
	}
	adjustUp(path)
	level := n.level
	for i := keep; i < len(des); i++ {
		t.insert(des[i].e, level, reinserted)
	}
}

// split performs the R* topological split of path's overfull last node.
func (t *Tree) split(path []*node, reinserted *uint64) {
	n := path[len(path)-1]
	groupA, groupB := chooseSplit(n.entries, t.ext)

	if n == t.root {
		left := &node{gen: t.gen, leaf: n.leaf, level: n.level, entries: groupA}
		right := &node{gen: t.gen, leaf: n.leaf, level: n.level, entries: groupB}
		t.root = &node{
			gen:   t.gen,
			leaf:  false,
			level: n.level + 1,
			entries: []entry{
				{rect: mbrOf(left.entries), child: left},
				{rect: mbrOf(right.entries), child: right},
			},
		}
		return
	}

	up := path[:len(path)-1]
	parent := up[len(up)-1]
	sibling := &node{gen: t.gen, leaf: n.leaf, level: n.level, entries: groupB}
	n.entries = groupA
	parent.entries[childIndex(parent, n)].rect = mbrOf(n.entries)
	parent.entries = append(parent.entries, entry{rect: mbrOf(sibling.entries), child: sibling})
	if len(parent.entries) > maxEntries {
		t.overflow(up, reinserted)
	} else {
		adjustUp(up)
	}
}

// chooseSplit implements the R* split: for each axis, sorted by lower and
// then by upper sides, sum the margins over all valid distributions; take
// the sort with the least sum (the first on ties), and within it the
// distribution with minimal overlap (ties by area). The MBRs of the
// distributions' two halves are grown in one scratch buffer, a running
// prefix and a table of suffixes, so the split allocates only that buffer
// and the two groups.
func chooseSplit(entries []entry, ext []space.Interval) (a, b []entry) {
	n, dim := len(entries), len(ext)
	es := make([]entry, n)
	buf := make(space.Rect, (n+1)*dim)
	pre, suf := buf[:dim], buf[dim:] // suf[k*dim:(k+1)*dim] bounds es[k:]
	sortOn := func(axis int, byHi bool) {
		copy(es, entries)
		slices.SortStableFunc(es, func(x, y entry) int {
			if byHi {
				return cmp.Compare(x.rect[axis].Hi, y.rect[axis].Hi)
			}
			return cmp.Compare(x.rect[axis].Lo, y.rect[axis].Lo)
		})
	}
	type split struct {
		axis          int
		byHi          bool
		k             int
		overlap, area float64
	}
	var best split // best.k == 0 until the first sort is scored
	var bestMargin float64
	for axis := 0; axis < dim; axis++ {
		for _, byHi := range [2]bool{false, true} {
			sortOn(axis, byHi)
			copy(suf[(n-1)*dim:], es[n-1].rect)
			for k := n - 2; k >= minEntries; k-- {
				unionInto(suf[k*dim:(k+1)*dim], suf[(k+1)*dim:(k+2)*dim], es[k].rect)
			}
			copy(pre, es[0].rect)
			for i := 1; i < minEntries; i++ {
				unionInto(pre, pre, es[i].rect)
			}
			margin := 0.0
			cand := split{axis: axis, byHi: byHi, k: -1}
			for k := minEntries; k <= n-minEntries; k++ {
				if k > minEntries {
					unionInto(pre, pre, es[k-1].rect)
				}
				right := suf[k*dim : (k+1)*dim]
				margin += marginOf(pre, ext) + marginOf(right, ext)
				overlap := intersectArea(pre, right, ext)
				area := areaOf(pre, ext) + areaOf(right, ext)
				if cand.k < 0 || overlap < cand.overlap || (overlap == cand.overlap && area < cand.area) {
					cand.k, cand.overlap, cand.area = k, overlap, area
				}
			}
			if best.k == 0 || margin < bestMargin {
				best, bestMargin = cand, margin
			}
		}
	}
	sortOn(best.axis, best.byHi)
	return es[:best.k], slices.Clone(es[best.k:])
}

// unionInto sets dst to the MBR of a and b; dst may alias a.
func unionInto(dst, a, b space.Rect) {
	for d := range dst {
		dst[d] = space.Interval{Lo: min(a[d].Lo, b[d].Lo), Hi: max(a[d].Hi, b[d].Hi)}
	}
}

// SearchPoint returns the ids of all rectangles containing p, in
// unspecified order.
func (t *Tree) SearchPoint(p space.Point) []int {
	return t.SearchPointAppend(p, nil)
}

// SearchPointAppend appends the ids of all rectangles containing p to out
// and returns the extended slice, in unspecified order. Passing a reusable
// buffer (sliced to length 0) makes the query allocation-free once the
// buffer has grown to the hit count.
func (t *Tree) SearchPointAppend(p space.Point, out []int) []int {
	if len(p) != t.dim {
		panic(fmt.Sprintf("rtree: point dim %d, tree dim %d", len(p), t.dim))
	}
	t.searchPoint(t.root, p, &out)
	return out
}

func (t *Tree) searchPoint(n *node, p space.Point, out *[]int) {
	for i := range n.entries {
		if !n.entries[i].rect.Contains(p) {
			continue
		}
		if n.leaf {
			*out = append(*out, n.entries[i].data)
		} else {
			t.searchPoint(n.entries[i].child, p, out)
		}
	}
}

// SearchRect returns the ids of all rectangles intersecting q.
func (t *Tree) SearchRect(q space.Rect) []int {
	if q.Dim() != t.dim {
		panic(fmt.Sprintf("rtree: rect dim %d, tree dim %d", q.Dim(), t.dim))
	}
	cq := clampRect(q)
	var out []int
	t.searchRect(t.root, cq, &out)
	return out
}

func (t *Tree) searchRect(n *node, q space.Rect, out *[]int) {
	for i := range n.entries {
		if !n.entries[i].rect.Intersects(q) {
			continue
		}
		if n.leaf {
			*out = append(*out, n.entries[i].data)
		} else {
			t.searchRect(n.entries[i].child, q, out)
		}
	}
}

// Delete removes one rectangle previously inserted with Insert(r, id),
// matching both the rectangle and the id. It reports whether an entry was
// removed.
func (t *Tree) Delete(r space.Rect, id int) bool {
	if r.Dim() != t.dim {
		return false
	}
	var buf [pathBuf]*node
	path, idx := findLeaf(t.root, clampRect(r), id, buf[:0])
	if path == nil {
		return false
	}
	path = t.ownPath(path)
	leaf := path[len(path)-1]
	leaf.entries = append(leaf.entries[:idx], leaf.entries[idx+1:]...)
	t.size--
	t.condense(path)
	// Shrink the root while it is a non-leaf with a single child.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
	}
	if len(t.root.entries) == 0 {
		t.root = &node{gen: t.gen, leaf: true}
	}
	return true
}

// findLeaf appends to path the nodes from n down to the leaf holding
// (r, id) and returns the extended path with the entry's index in that
// leaf, or a nil path when no such entry exists. It only reads the tree,
// and only descends into children whose MBR contains r: every ancestor's
// MBR holds a stored rect whole, while many more merely intersect it.
func findLeaf(n *node, r space.Rect, id int, path []*node) ([]*node, int) {
	path = append(path, n)
	for i := range n.entries {
		e := &n.entries[i]
		if n.leaf {
			if e.data == id && e.rect.Equal(r) {
				return path, i
			}
		} else if e.rect.ContainsRect(r) {
			if found, idx := findLeaf(e.child, r, id, path); found != nil {
				return found, idx
			}
		}
	}
	return nil, -1
}

// condense walks an owned root-to-leaf path up from the shrunken leaf,
// removing underfull nodes and collecting their entries for re-insertion
// at the right level.
func (t *Tree) condense(path []*node) {
	type orphan struct {
		e     entry
		level int
	}
	var orphans []orphan
	for k := len(path) - 1; k > 0; k-- {
		n, parent := path[k], path[k-1]
		j := childIndex(parent, n)
		if len(n.entries) < minEntries {
			parent.entries = append(parent.entries[:j], parent.entries[j+1:]...)
			for _, e := range n.entries {
				orphans = append(orphans, orphan{e: e, level: n.level})
			}
		} else {
			parent.entries[j].rect = mbrOf(n.entries)
		}
	}
	for _, o := range orphans {
		var reinserted uint64
		t.insert(o.e, o.level, &reinserted)
	}
}

// --- geometry helpers ---
//
// mbrOf works on stored rects, which Contains reads, so it keeps their
// ±maxCoord clamp. The R* heuristics below take the tree's extent and read
// each side through side, which clamps unbounded ends into it.

func mbrOf(es []entry) space.Rect {
	if len(es) == 0 {
		return nil
	}
	out := es[0].rect.Clone()
	for _, e := range es[1:] {
		for d := range out {
			if e.rect[d].Lo < out[d].Lo {
				out[d].Lo = e.rect[d].Lo
			}
			if e.rect[d].Hi > out[d].Hi {
				out[d].Hi = e.rect[d].Hi
			}
		}
	}
	return out
}

// side returns r's side on axis d with its ends clamped into ext[d].
func side(r space.Rect, ext []space.Interval, d int) (lo, hi float64) {
	return max(r[d].Lo, ext[d].Lo), min(r[d].Hi, ext[d].Hi)
}

func areaOf(r space.Rect, ext []space.Interval) float64 {
	a := 1.0
	for d := range r {
		lo, hi := side(r, ext, d)
		a *= hi - lo
	}
	return a
}

func marginOf(r space.Rect, ext []space.Interval) float64 {
	m := 0.0
	for d := range r {
		lo, hi := side(r, ext, d)
		m += hi - lo
	}
	return m
}

func intersectArea(a, b space.Rect, ext []space.Interval) float64 {
	v := 1.0
	for d := range a {
		alo, ahi := side(a, ext, d)
		blo, bhi := side(b, ext, d)
		lo, hi := max(alo, blo), min(ahi, bhi)
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// enlargement is the area growth of r needed to cover q.
func enlargement(r, q space.Rect, ext []space.Interval) float64 {
	grown := 1.0
	for d := range r {
		rlo, rhi := side(r, ext, d)
		qlo, qhi := side(q, ext, d)
		grown *= max(rhi, qhi) - min(rlo, qlo)
	}
	return grown - areaOf(r, ext)
}

// overlapEnlargement is the growth in overlap between entry i and its
// siblings if entry i absorbs q.
func overlapEnlargement(es []entry, i int, q space.Rect, ext []space.Interval) float64 {
	before, after := 0.0, 0.0
	for j := range es {
		if j == i {
			continue
		}
		before += intersectArea(es[i].rect, es[j].rect, ext)
		after += grownIntersectArea(es[i].rect, q, es[j].rect, ext)
	}
	return after - before
}

// grownIntersectArea is intersectArea(r grown to cover q, b), computed
// without materialising the grown rectangle.
func grownIntersectArea(r, q, b space.Rect, ext []space.Interval) float64 {
	v := 1.0
	for d := range r {
		rlo, rhi := side(r, ext, d)
		qlo, qhi := side(q, ext, d)
		blo, bhi := side(b, ext, d)
		lo, hi := max(min(rlo, qlo), blo), min(max(rhi, qhi), bhi)
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
}

// centre is the midpoint of r's side on axis d.
func centre(r space.Rect, ext []space.Interval, d int) float64 {
	lo, hi := side(r, ext, d)
	return (lo + hi) / 2
}

// depth returns the height of the tree (for tests/diagnostics).
func (t *Tree) depth() int {
	d := 1
	n := t.root
	for !n.leaf {
		n = n.entries[0].child
		d++
	}
	return d
}

// checkInvariants validates structural invariants; used by tests. Besides
// the R* shape (fill, levels, exact MBRs, size) it checks what path copying
// must preserve: every node is reachable once, and a node this tree owns
// never hangs below one it does not own (a shared parent is reachable from
// another tree, which would then see this tree's in-place writes). The
// extent must have positive width on every axis and cover every bounded
// side stored.
func (t *Tree) checkInvariants() error {
	for d, iv := range t.ext {
		if !(iv.Lo < iv.Hi) || math.IsInf(iv.Lo, 0) || math.IsInf(iv.Hi, 0) {
			return fmt.Errorf("rtree: extent %v on axis %d", iv, d)
		}
	}
	seen := make(map[*node]bool)
	var walk func(n *node, isRoot bool) (int, error)
	walk = func(n *node, isRoot bool) (int, error) {
		if seen[n] {
			return 0, fmt.Errorf("rtree: node at level %d reachable twice", n.level)
		}
		seen[n] = true
		if !isRoot && (len(n.entries) < minEntries || len(n.entries) > maxEntries) {
			return 0, fmt.Errorf("rtree: node with %d entries", len(n.entries))
		}
		if len(n.entries) > maxEntries {
			return 0, fmt.Errorf("rtree: overfull node with %d entries", len(n.entries))
		}
		if n.leaf {
			if n.level != 0 {
				return 0, fmt.Errorf("rtree: leaf at level %d", n.level)
			}
			for _, e := range n.entries {
				if !covers(t.ext, e.rect) {
					return 0, fmt.Errorf("rtree: extent %v does not cover %v", t.ext, e.rect)
				}
			}
			return len(n.entries), nil
		}
		count := 0
		for i := range n.entries {
			child := n.entries[i].child
			if child == nil {
				return 0, fmt.Errorf("rtree: nil child in internal node")
			}
			if child.gen == t.gen && n.gen != t.gen {
				return 0, fmt.Errorf("rtree: owned node under a shared parent at level %d", n.level)
			}
			if child.level != n.level-1 {
				return 0, fmt.Errorf("rtree: child level %d under level %d", child.level, n.level)
			}
			if !n.entries[i].rect.Equal(mbrOf(child.entries)) {
				return 0, fmt.Errorf("rtree: stale MBR at level %d", n.level)
			}
			c, err := walk(child, false)
			if err != nil {
				return 0, err
			}
			count += c
		}
		return count, nil
	}
	count, err := walk(t.root, true)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rtree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}
