package core

import (
	"fmt"
	"math"
	"slices"

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
	// MatchedSubs are the matching subscription slots, in no particular
	// order: the index's search order, which its shape decides.
	MatchedSubs []int
}

// decider is the frozen state one delivery decision reads: the
// subscription index, the group table and the quarantine set. It lives
// only inside a DecisionSnapshot: Engine.Snapshot freezes one over the
// engine's live state (structurally shared tree clone, frozen subscription
// slice, copied quarantine map) for lock-free concurrent reads, and
// GridSnapshot and NoLossSnapshot build one over a grouping computed
// outside an Engine.
//
// Invariant: decision code must never read a world's Subs (the group
// table's world included) — a writer may be appending to it concurrently —
// only the frozen subs slice.
type decider struct {
	threshold float64
	dynamic   bool

	subs []workload.Subscription
	tree *rtree.Tree

	groups      *groupTable
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
	d.MatchedSubs = hits
	// Distinct interested nodes, ascending: collect every owner, then
	// sort + compact, which orders them whatever order the hits came in.
	nodes := sc.nodes[:0]
	for _, si := range hits {
		nodes = append(nodes, dc.subs[si].Owner)
	}
	slices.Sort(nodes)
	nodes = slices.Compact(nodes)
	sc.nodes = nodes
	d.Interested = nodes

	g, ok := dc.groups.route.GroupFor(ev.Point)
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
	if size := len(dc.groups.nodes[g]); dc.threshold > 0 && size > 0 {
		inGroup := 0
		for _, n := range d.Interested {
			if dc.groups.memberOf(g, n) {
				inGroup++
			}
		}
		if float64(inGroup)/float64(size) < dc.threshold {
			return d
		}
	}

	d.Method = multicast.NetworkMulticast
	d.Group = g
	rem := sc.rem[:0]
	for _, n := range d.Interested {
		if !dc.groups.memberOf(g, n) {
			rem = append(rem, n)
		}
	}
	sc.rem = rem
	if len(rem) > 0 {
		d.Remainder = rem
	}
	return d
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
		group = cost.SPTCoverCost(ev.Pub, dc.groups.nodes[d.Group])
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
		Network:  cost.SPTCoverCost(ev.Pub, dc.groups.nodes[d.Group]) + top,
		AppLevel: cost.ALMCost(ev.Pub, dc.groups.overlay(d.Group)) + top,
	}
}

// Publish decides and prices one event in a single call, through the
// engine's current snapshot (see Snapshot), so it runs exactly the decision
// a broker's decide workers run. Only the decision is timed.
func (e *Engine) Publish(ev workload.Event) (Decision, Costs, error) {
	if len(ev.Point) != e.world.Dim {
		return Decision{}, Costs{}, fmt.Errorf("core: event dim %d, world dim %d", len(ev.Point), e.world.Dim)
	}
	if ev.Pub < 0 || int(ev.Pub) >= e.graph.NumNodes() {
		return Decision{}, Costs{}, fmt.Errorf("core: publisher %d out of range", ev.Pub)
	}
	s := e.Snapshot()
	d := e.timedDecide(s, ev)
	return d, s.CostOf(ev, d, e.model), nil
}

// timedDecide is s.Decide, counted into core.decides and timed into
// core.decide_ns when the engine is instrumented.
func (e *Engine) timedDecide(s *DecisionSnapshot, ev workload.Event) Decision {
	// Guard the clock read so an uninstrumented engine pays nothing.
	if e.tel.decideNs != nil {
		defer e.tel.decideNs.Start()()
		e.tel.decides.Inc()
	}
	return s.Decide(ev, e.model)
}
