// Package multicast implements the paper's communication-cost model. Costs
// are sums of edge costs over the links a message traverses (§5.2):
//
//   - unicast: one shortest path per delivery (per matching subscription);
//   - broadcast: the full shortest-path tree rooted at the publisher;
//   - ideal multicast: the SPT pruned to exactly the interested nodes —
//     the per-event lower bound the paper normalises against;
//   - dense-mode network multicast to a precomputed group: the SPT pruned
//     to the group members;
//   - application-level multicast: group members form an overlay MST in the
//     unicast metric closure and forward member-to-member; the publisher
//     enters the overlay via its cheapest unicast hop.
//
// A Model lazily caches one shortest-path tree per publisher so replaying a
// long event stream costs one Dijkstra per distinct publisher.
//
// Concurrency: the tree cache is filled with a compare-and-swap and shared
// by a Model and every View of it, so SPT, Dist, UnicastCost,
// BroadcastCost, ALMCost and BuildOverlay are safe for concurrent use.
// SPTCoverCost prices through per-Model Coverer scratch and is not: each
// goroutine that calls it needs its own View.
package multicast

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Method enumerates distribution methods.
type Method uint8

// Distribution methods.
const (
	Unicast Method = iota
	Broadcast
	Ideal
	NetworkMulticast
	AppLevelMulticast
)

func (m Method) String() string {
	switch m {
	case Unicast:
		return "unicast"
	case Broadcast:
		return "broadcast"
	case Ideal:
		return "ideal"
	case NetworkMulticast:
		return "network-multicast"
	case AppLevelMulticast:
		return "app-level-multicast"
	default:
		return fmt.Sprintf("Method(%d)", uint8(m))
	}
}

// Model evaluates delivery costs on one network. See the package comment
// for which methods are safe for concurrent use.
type Model struct {
	g *topology.Graph
	// spts is the tree cache shared with every View. Dijkstra is
	// deterministic on an immutable graph, so goroutines racing to fill
	// one root compute identical trees and whichever CAS wins is
	// indistinguishable from the other.
	spts []atomic.Pointer[routing.SPT]
	// covs is this Model's own Coverer scratch (epoch-stamped, not
	// concurrency-safe).
	covs []*routing.Coverer
}

// NewModel creates a cost model over g. The graph must not be mutated
// afterwards.
func NewModel(g *topology.Graph) *Model {
	return &Model{
		g:    g,
		spts: make([]atomic.Pointer[routing.SPT], g.NumNodes()),
		covs: make([]*routing.Coverer, g.NumNodes()),
	}
}

// View returns a Model that shares m's tree cache but owns its Coverer
// scratch, for one more goroutine. Views are cheap; every cost query on a
// view returns bit-identical numbers to m.
func (m *Model) View() *Model {
	return &Model{g: m.g, spts: m.spts, covs: make([]*routing.Coverer, len(m.covs))}
}

// Graph returns the underlying network.
func (m *Model) Graph() *topology.Graph { return m.g }

// SPT returns the (cached) shortest-path tree rooted at root. Safe for
// concurrent use.
func (m *Model) SPT(root topology.NodeID) *routing.SPT {
	if t := m.spts[root].Load(); t != nil {
		return t
	}
	t := routing.Dijkstra(m.g, root)
	if !m.spts[root].CompareAndSwap(nil, t) {
		return m.spts[root].Load() // lost the race; identical tree
	}
	return t
}

func (m *Model) coverer(root topology.NodeID) *routing.Coverer {
	if m.covs[root] == nil {
		m.covs[root] = routing.NewCoverer(m.SPT(root))
	}
	return m.covs[root]
}

// Dist returns the shortest-path distance between two nodes.
func (m *Model) Dist(u, v topology.NodeID) float64 {
	return m.SPT(u).Dist[v]
}

// UnicastCost is the cost of separately unicasting to every target. Targets
// may repeat (one delivery per matching subscription, the paper's unicast
// accounting) and each repeat is charged.
func (m *Model) UnicastCost(pub topology.NodeID, targets []topology.NodeID) float64 {
	spt := m.SPT(pub)
	c := 0.0
	for _, v := range targets {
		d := spt.Dist[v]
		if math.IsInf(d, 1) {
			continue
		}
		c += d
	}
	return c
}

// BroadcastCost is the cost of flooding the whole network along the
// publisher's shortest-path tree.
func (m *Model) BroadcastCost(pub topology.NodeID) float64 {
	return m.SPT(pub).TreeCost()
}

// SPTCoverCost is the cost of the publisher's SPT pruned to the given
// node set (each shared edge charged once). With targets = interested
// nodes this is the paper's ideal multicast; with targets = group members
// it is dense-mode network-supported group multicast.
func (m *Model) SPTCoverCost(pub topology.NodeID, targets []topology.NodeID) float64 {
	return m.coverer(pub).Cost(targets)
}

// Overlay is a precomputed application-level multicast overlay for one
// multicast group: the MST of the group members in the unicast metric
// closure.
type Overlay struct {
	Members  []topology.NodeID
	TreeCost float64
	// Edges are pairs of indices into Members.
	Edges [][2]int
}

// BuildOverlay computes a group's application-level overlay. The member
// list is copied. Safe for concurrent use: it reads only the shared tree
// cache, so the decide plane builds overlays lazily on whichever worker
// first prices a group.
func (m *Model) BuildOverlay(members []topology.NodeID) Overlay {
	ms := make([]topology.NodeID, len(members))
	copy(ms, members)
	cost, edges := m.overlayMST(ms)
	return Overlay{Members: ms, TreeCost: cost, Edges: edges}
}

// overlayMST is Prim's algorithm over the metric closure.
func (m *Model) overlayMST(members []topology.NodeID) (float64, [][2]int) {
	k := len(members)
	if k <= 1 {
		return 0, nil
	}
	inTree := make([]bool, k)
	best := make([]float64, k)
	bestFrom := make([]int, k)
	d0 := m.SPT(members[0]).Dist
	for j := 1; j < k; j++ {
		best[j] = d0[members[j]]
		bestFrom[j] = 0
	}
	inTree[0] = true
	total := 0.0
	edges := make([][2]int, 0, k-1)
	for added := 1; added < k; added++ {
		pick := -1
		for j := 0; j < k; j++ {
			if !inTree[j] && (pick == -1 || best[j] < best[pick]) {
				pick = j
			}
		}
		if math.IsInf(best[pick], 1) {
			panic("multicast: overlay over disconnected members")
		}
		inTree[pick] = true
		total += best[pick]
		edges = append(edges, [2]int{bestFrom[pick], pick})
		dp := m.SPT(members[pick]).Dist
		for j := 0; j < k; j++ {
			if !inTree[j] && dp[members[j]] < best[j] {
				best[j] = dp[members[j]]
				bestFrom[j] = pick
			}
		}
	}
	return total, edges
}

// ALMCost is the cost of delivering one event to the overlay group: the
// publisher's cheapest unicast hop into the overlay plus the full overlay
// tree. A publisher that is itself a member enters for free.
func (m *Model) ALMCost(pub topology.NodeID, o Overlay) float64 {
	if len(o.Members) == 0 {
		return 0
	}
	dist := m.SPT(pub).Dist
	entry := math.Inf(1)
	for _, v := range o.Members {
		if v == pub {
			entry = 0
			break
		}
		if d := dist[v]; d < entry {
			entry = d
		}
	}
	if math.IsInf(entry, 1) {
		return 0 // group unreachable; nothing deliverable
	}
	return entry + o.TreeCost
}
