// Package routing provides the path machinery the cost model is built on:
// Dijkstra shortest-path trees (dense-mode multicast routes messages along
// the SPT rooted at the publisher), all-pairs distances, Kruskal and Prim
// minimum spanning trees (application-level multicast overlays), and a
// union-find used both here and by the MST clustering algorithm.
package routing

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/topology"
)

// SPT is a shortest-path tree rooted at Root. Unreachable nodes have
// Dist = +Inf and Parent = -1 (the root also has Parent = -1).
type SPT struct {
	Root       topology.NodeID
	Dist       []float64
	Parent     []topology.NodeID
	ParentCost []float64 // cost of the edge to Parent, 0 at the root
	// treeCost is TreeCost computed once at construction. The decide plane
	// prices broadcast per event; rescanning O(V) parent arrays there would
	// dominate the decision at large node counts.
	treeCost float64
}

type pqItem struct {
	node topology.NodeID
	dist float64
}

type pq []pqItem

func (p pq) Len() int            { return len(p) }
func (p pq) Less(i, j int) bool  { return p[i].dist < p[j].dist }
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// Dijkstra computes the shortest-path tree from root. Ties are broken by
// heap order, which is deterministic for a fixed graph.
func Dijkstra(g *topology.Graph, root topology.NodeID) *SPT {
	n := g.NumNodes()
	if root < 0 || int(root) >= n {
		panic(fmt.Sprintf("routing: root %d out of range [0,%d)", root, n))
	}
	t := &SPT{
		Root:       root,
		Dist:       make([]float64, n),
		Parent:     make([]topology.NodeID, n),
		ParentCost: make([]float64, n),
	}
	for i := range t.Dist {
		t.Dist[i] = math.Inf(1)
		t.Parent[i] = -1
	}
	t.Dist[root] = 0

	done := make([]bool, n)
	q := pq{{node: root, dist: 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, h := range g.Neighbors(u) {
			nd := it.dist + h.Cost
			if nd < t.Dist[h.To] {
				t.Dist[h.To] = nd
				t.Parent[h.To] = u
				t.ParentCost[h.To] = h.Cost
				heap.Push(&q, pqItem{node: h.To, dist: nd})
			}
		}
	}
	for v := range t.Parent {
		if t.Parent[v] != -1 {
			t.treeCost += t.ParentCost[v]
		}
	}
	return t
}

// PathTo returns the node sequence from the root to v inclusive, or nil if
// v is unreachable.
func (t *SPT) PathTo(v topology.NodeID) []topology.NodeID {
	if math.IsInf(t.Dist[v], 1) {
		return nil
	}
	var rev []topology.NodeID
	for u := v; u != -1; u = t.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TreeCost returns the total cost of all tree edges reaching reachable
// nodes — the per-event broadcast cost when the tree is rooted at the
// publisher. O(1): the sum is computed once when the tree is built.
func (t *SPT) TreeCost() float64 { return t.treeCost }

// Coverer computes, against one SPT, the cost of the subtree spanning the
// root and a target set: the union of root→target shortest paths with each
// edge counted once. This is the paper's ideal-multicast cost (targets =
// interested nodes) and its dense-mode group multicast cost (targets =
// group members). It reuses an epoch-stamped visited array so per-event
// queries allocate nothing.
type Coverer struct {
	t     *SPT
	stamp []int64
	epoch int64
}

// NewCoverer creates a Coverer for the tree.
func NewCoverer(t *SPT) *Coverer {
	return &Coverer{t: t, stamp: make([]int64, len(t.Dist))}
}

// Cost returns the total edge cost of the union of shortest paths from the
// tree root to every target. Unreachable targets are ignored. Targets equal
// to the root cost nothing.
func (c *Coverer) Cost(targets []topology.NodeID) float64 {
	c.epoch++
	c.stamp[c.t.Root] = c.epoch
	total := 0.0
	for _, v := range targets {
		if math.IsInf(c.t.Dist[v], 1) {
			continue
		}
		for u := v; c.stamp[u] != c.epoch; u = c.t.Parent[u] {
			c.stamp[u] = c.epoch
			total += c.t.ParentCost[u]
		}
	}
	return total
}

// AllPairs holds a full distance matrix; Dist[u][v] is the shortest-path
// distance. Built by running Dijkstra from every node.
type AllPairs struct {
	Dist [][]float64
}

// NewAllPairs computes all-pairs shortest path distances.
func NewAllPairs(g *topology.Graph) *AllPairs {
	n := g.NumNodes()
	ap := &AllPairs{Dist: make([][]float64, n)}
	for u := 0; u < n; u++ {
		ap.Dist[u] = Dijkstra(g, topology.NodeID(u)).Dist
	}
	return ap
}
