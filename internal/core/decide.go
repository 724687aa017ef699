package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/rtree"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Decision is the Engine's delivery plan for one event.
type Decision struct {
	// Method is Unicast when no group was used, otherwise NetworkMulticast
	// (the caller picks the actual framework when costing; see Costs).
	Method multicast.Method
	// Group is the multicast group index, -1 when Method is Unicast.
	Group int
	// Interested lists the distinct nodes with at least one matching
	// subscription, ascending.
	Interested []topology.NodeID
	// Remainder lists interested nodes the routed group does not cover;
	// they receive unicast top-up copies. Empty when Method is Unicast.
	Remainder []topology.NodeID
	// MatchedSubs are the matching subscription slots, ascending.
	MatchedSubs []int
}

// decider is the frozen state one delivery decision reads: the
// subscription index, the group tables and the quarantine set. The Engine
// builds a decider over its live state for the single-threaded path;
// DecisionSnapshot freezes one (cloned tree, frozen subscription slice,
// copied quarantine map) for lock-free concurrent reads.
//
// Invariant: decision code must never read world.Subs — a writer may be
// appending to it concurrently — only the frozen subs slice.
type decider struct {
	threshold float64
	dynamic   bool

	world *workload.World // SubscriberIndex/SubscriberNodes only
	subs  []workload.Subscription
	tree  *rtree.Tree

	gridIdx *matching.GridIndex
	gridRes *cluster.Result
	nlIdx   *matching.NoLossIndex

	groupNodes  [][]topology.NodeID
	overlays    *overlayTable
	quarantined map[int]bool
}

// DecideScratch holds the temporaries one delivery decision fills: the
// R*-tree hit list, the interested-node list and the unicast-remainder
// list. A decide worker allocates one scratch and reuses it across events
// (DecisionSnapshot.DecideInto), making the decide path allocation-free in
// steady state. The Decision returned against a scratch aliases its
// buffers: it is valid only until the scratch's next use, and callers that
// retain a Decision must copy the slices first.
type DecideScratch struct {
	hits  []int
	nodes []topology.NodeID
	rem   []topology.NodeID
}

// dec builds a decider over the engine's live state.
func (e *Engine) dec() decider {
	return decider{
		threshold:   e.cfg.Threshold,
		dynamic:     e.cfg.DynamicMethod,
		world:       e.world,
		subs:        e.world.Subs,
		tree:        e.tree,
		gridIdx:     e.gridIdx,
		gridRes:     e.gridRes,
		nlIdx:       e.nlIdx,
		groupNodes:  e.groupNodes,
		overlays:    e.overlays,
		quarantined: e.quarantined,
	}
}

// Decide matches the event and plans its delivery per Figures 5/6. With
// Config.DynamicMethod it additionally compares the group-multicast,
// unicast and broadcast prices and downgrades or upgrades the method to
// the cheapest (the §1 distribution-method decision).
func (e *Engine) Decide(ev workload.Event) Decision {
	// Guard the clock read so an uninstrumented engine pays nothing.
	if e.tel.decideNs != nil {
		defer e.tel.decideNs.Start()()
		e.tel.decides.Inc()
	}
	dc := e.dec()
	return dc.decide(ev, e.model, nil)
}

// decide runs the full decision: static routing plus (when enabled) the
// dynamic method comparison. cost is the engine's model or a view of it,
// owned by the calling goroutine; every view prices bit-identically. A nil
// scratch allocates fresh slices, giving the caller a Decision it may
// retain.
func (dc *decider) decide(ev workload.Event, cost *multicast.Model, sc *DecideScratch) Decision {
	if sc == nil {
		sc = &DecideScratch{}
	}
	d := dc.decideStatic(ev, sc)
	if !dc.dynamic {
		return d
	}
	return dc.pickMethod(ev, d, cost)
}

// decideStatic is the Fig 5/6 routing without method re-selection. The
// returned Decision's slices are backed by sc.
func (dc *decider) decideStatic(ev workload.Event, sc *DecideScratch) Decision {
	d := Decision{Group: -1, Method: multicast.Unicast}
	hits := dc.tree.SearchPointAppend(ev.Point, sc.hits[:0])
	sc.hits = hits
	slices.Sort(hits)
	d.MatchedSubs = hits
	// Distinct interested nodes, ascending: collect every owner, then
	// sort + compact. Same output as the previous map-dedup-then-sort,
	// without the per-event map and sort closure allocations.
	nodes := sc.nodes[:0]
	for _, si := range hits {
		nodes = append(nodes, dc.subs[si].Owner)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	sc.nodes = nodes
	d.Interested = nodes

	var g int
	var ok bool
	if dc.nlIdx != nil {
		g, ok = dc.nlIdx.GroupFor(ev.Point)
	} else {
		g, ok = dc.gridIdx.GroupFor(ev.Point)
	}
	if !ok {
		return d
	}
	// Quarantined groups (persistent delivery failures reported by the
	// broker) are bypassed: affected members fall back to unicast until
	// Refresh rebuilds the groups.
	if dc.quarantined[g] {
		return d
	}

	// Threshold rule (Fig 5): multicast only when enough of the group is
	// interested.
	if dc.threshold > 0 && len(dc.groupNodes[g]) > 0 {
		inGroup := 0
		for _, n := range d.Interested {
			if dc.memberOf(g, n) {
				inGroup++
			}
		}
		if float64(inGroup)/float64(len(dc.groupNodes[g])) < dc.threshold {
			return d
		}
	}

	d.Method = multicast.NetworkMulticast
	d.Group = g
	rem := sc.rem[:0]
	for _, n := range d.Interested {
		if !dc.memberOf(g, n) {
			rem = append(rem, n)
		}
	}
	sc.rem = rem
	if len(rem) > 0 {
		d.Remainder = rem
	}
	return d
}

func (dc *decider) memberOf(g int, n topology.NodeID) bool {
	idx, ok := dc.world.SubscriberIndex(n)
	if !ok {
		return false
	}
	if dc.nlIdx != nil {
		return dc.nlIdx.Groups()[g].Members.Test(idx)
	}
	// Group.Member consults the compressed mirror when the group is sparse.
	return dc.gridRes.Groups[g].Member(idx)
}

// Costs prices a decision under both multicast frameworks.
type Costs struct {
	Network  float64
	AppLevel float64
}

// pickMethod downgrades or upgrades a routed decision to the cheapest of
// group multicast, per-node unicast and broadcast, priced under the
// network-supported framework.
func (dc *decider) pickMethod(ev workload.Event, d Decision, cost *multicast.Model) Decision {
	unicast := 0.0
	for _, n := range d.Interested {
		unicast += cost.Dist(ev.Pub, n)
	}
	bcast := cost.BroadcastCost(ev.Pub)

	group := math.Inf(1)
	if d.Method == multicast.NetworkMulticast && d.Group >= 0 {
		group = cost.SPTCoverCost(ev.Pub, dc.groupNodes[d.Group])
		for _, n := range d.Remainder {
			group += cost.Dist(ev.Pub, n)
		}
	}

	switch {
	case bcast <= unicast && bcast <= group:
		d.Method = multicast.Broadcast
		d.Group = -1
		d.Remainder = nil
	case unicast <= group:
		d.Method = multicast.Unicast
		d.Group = -1
		d.Remainder = nil
	default:
		// keep the group multicast
	}
	return d
}

// costOf prices a decision for the given event.
func (dc *decider) costOf(ev workload.Event, d Decision, cost *multicast.Model) Costs {
	if d.Method == multicast.Broadcast {
		b := cost.BroadcastCost(ev.Pub)
		return Costs{Network: b, AppLevel: b}
	}
	if d.Method == multicast.Unicast || d.Group < 0 {
		u := 0.0
		for _, n := range d.Interested {
			u += cost.Dist(ev.Pub, n)
		}
		return Costs{Network: u, AppLevel: u}
	}
	top := 0.0
	for _, n := range d.Remainder {
		top += cost.Dist(ev.Pub, n)
	}
	return Costs{
		Network:  cost.SPTCoverCost(ev.Pub, dc.groupNodes[d.Group]) + top,
		AppLevel: cost.ALMCost(ev.Pub, dc.overlays.get(d.Group)) + top,
	}
}

// CostOf prices a decision for the given event.
func (e *Engine) CostOf(ev workload.Event, d Decision) Costs {
	dc := e.dec()
	return dc.costOf(ev, d, e.model)
}

// Publish decides and prices one event in a single call.
func (e *Engine) Publish(ev workload.Event) (Decision, Costs, error) {
	if len(ev.Point) != e.world.Dim {
		return Decision{}, Costs{}, fmt.Errorf("core: event dim %d, world dim %d", len(ev.Point), e.world.Dim)
	}
	if ev.Pub < 0 || int(ev.Pub) >= e.graph.NumNodes() {
		return Decision{}, Costs{}, fmt.Errorf("core: publisher %d out of range", ev.Pub)
	}
	d := e.Decide(ev)
	return d, e.CostOf(ev, d), nil
}
