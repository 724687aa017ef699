package rtree

import "sync/atomic"

// generations hands out tree generations. Each is unique process-wide, so
// no two trees ever own the same node.
var generations atomic.Uint64

func nextGen() uint64 { return generations.Add(1) }

// Clone returns a copy of the tree in O(1). The two trees share every node
// and each gets a fresh generation, so neither owns a shared node any more:
// a later Insert or Delete on either copies the nodes on its root-to-leaf
// path before writing them and leaves the other tree untouched.
// Rectangles and the heuristics' extent are shared too — the tree never
// writes a stored rect or an extent in place (MBR updates install freshly
// built rects, and a growing extent is copied first).
//
// Clone changes t's generation, so it must be called by t's writer; it may
// run concurrently with searches of t and of any other clone.
func (t *Tree) Clone() *Tree {
	t.gen = nextGen()
	return &Tree{dim: t.dim, root: t.root, size: t.size, gen: nextGen(), ext: t.ext}
}

// ownPath makes every node on a root-to-node path owned by t, so the caller
// may write them in place. Shared nodes are copied top-down and each
// parent's entry is re-pointed at the copy; nodes off the path stay shared.
// The owned nodes of a tree always form a connected top part of it, so the
// parent of a node being copied is already owned.
func (t *Tree) ownPath(path []*node) []*node {
	for k, n := range path {
		if n.gen == t.gen {
			continue
		}
		c := copyNode(n, t.gen)
		if k == 0 {
			t.root = c
		} else {
			parent := path[k-1]
			parent.entries[childIndex(parent, n)].child = c
		}
		path[k] = c
	}
	return path
}

// copyNode returns a shallow copy of n owned by generation gen: a fresh
// entry array whose children and rects are shared.
func copyNode(n *node, gen uint64) *node {
	return &node{gen: gen, leaf: n.leaf, level: n.level, entries: append([]entry(nil), n.entries...)}
}
