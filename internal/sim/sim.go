// Package sim replays event streams against a network, a subscription
// population and a clustering solution, and accounts communication costs
// exactly as the paper's experiments do (§3, §5.2):
//
//   - the unicast baseline pays one shortest path per *matching
//     subscription* (no node deduplication — the paper's unicast numbers
//     in Tables 1–2 only make sense under this accounting);
//   - broadcast pays the publisher's full shortest-path tree;
//   - ideal multicast pays the publisher's SPT pruned to the interested
//     nodes — the normalisation ceiling;
//   - a clustering solution pays the multicast cost of the routed group
//     (network-supported dense mode or application-level overlay) plus
//     per-node unicast for any interested node the group does not cover;
//     events that no group covers fall back to per-node unicast. Evaluate
//     replays through core.DecisionSnapshot, so a solution is routed and
//     priced by the same decider the broker runs.
//
// Improvement percentage normalises a solution between those poles:
// 0% = unicast baseline, 100% = ideal multicast.
package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/workload"
)

// Baselines are per-event average costs of the three reference schemes.
type Baselines struct {
	Unicast   float64
	Broadcast float64
	Ideal     float64
}

// MeasureBaselines replays events and accumulates the three reference
// costs.
func MeasureBaselines(m *multicast.Model, w *workload.World, sm matching.SubscriptionMatcher, events []workload.Event) (Baselines, error) {
	if len(events) == 0 {
		return Baselines{}, fmt.Errorf("sim: no events")
	}
	var b Baselines
	for _, e := range events {
		subs := sm.Match(e.Point)
		nodes := matching.InterestedNodes(w, subs)
		for _, si := range subs {
			b.Unicast += m.Dist(e.Pub, w.Subs[si].Owner)
		}
		b.Broadcast += m.BroadcastCost(e.Pub)
		b.Ideal += m.SPTCoverCost(e.Pub, nodes)
	}
	n := float64(len(events))
	b.Unicast /= n
	b.Broadcast /= n
	b.Ideal /= n
	return b, nil
}

// Costs are per-event average delivery costs of a clustering solution
// under the two multicast frameworks: Network for network-supported
// dense-mode multicast, AppLevel for application-level overlay multicast.
type Costs = core.Costs

// Evaluate replays events through a decision snapshot (see
// core.GridSnapshot and core.NoLossSnapshot) with the decide-then-price
// loop a broker's decide worker runs, and returns the per-event average
// costs. observe, when non-nil, is called once per event with that
// event's un-averaged costs — the hook the telemetry layer uses to feed
// per-event cost histograms without changing the accounting. view must be
// owned by the calling goroutine.
func Evaluate(snap *core.DecisionSnapshot, view *multicast.Model, events []workload.Event, observe func(network, appLevel float64)) (Costs, error) {
	if len(events) == 0 {
		return Costs{}, fmt.Errorf("sim: no events")
	}
	var sc core.DecideScratch
	var c Costs
	for _, ev := range events {
		ec := snap.CostOf(ev, snap.DecideInto(ev, view, &sc), view)
		c.Network += ec.Network
		c.AppLevel += ec.AppLevel
		if observe != nil {
			observe(ec.Network, ec.AppLevel)
		}
	}
	n := float64(len(events))
	c.Network /= n
	c.AppLevel /= n
	return c, nil
}

// ExpectedTransmissions returns the expected number of transmissions per
// delivery under a per-attempt drop probability p and at most retries
// retransmissions (a truncated geometric series):
//
//	E[T] = (1 − p^(retries+1)) / (1 − p)
//
// It is the multiplicative link-cost overhead of the broker's retry
// protocol: every retransmission re-pays the delivery path.
func ExpectedTransmissions(p float64, retries int) float64 {
	if retries < 0 {
		retries = 0
	}
	switch {
	case p <= 0:
		return 1
	case p >= 1:
		return float64(retries + 1)
	}
	return (1 - math.Pow(p, float64(retries+1))) / (1 - p)
}

// DeliveryProbability returns the chance a delivery succeeds within the
// retry bound: 1 − p^(retries+1).
func DeliveryProbability(p float64, retries int) float64 {
	if retries < 0 {
		retries = 0
	}
	switch {
	case p <= 0:
		return 1
	case p >= 1:
		return 0
	}
	return 1 - math.Pow(p, float64(retries+1))
}

// FaultAdjust scales solution costs by the expected retransmission
// overhead of a lossy fabric: each delivered copy costs
// ExpectedTransmissions(p, retries) times its loss-free price. This is the
// cost model's view of the broker's reliability protocol — replays stay
// cheap while the sweep in internal/experiments prices fault profiles.
func FaultAdjust(c Costs, dropProb float64, retries int) Costs {
	f := ExpectedTransmissions(dropProb, retries)
	return Costs{Network: c.Network * f, AppLevel: c.AppLevel * f}
}

// Improvement converts a solution cost into the paper's improvement
// percentage: 0 at the unicast baseline, 100 at ideal multicast. Returns 0
// when the baseline equals the ideal (no headroom to improve).
func Improvement(b Baselines, cost float64) float64 {
	den := b.Unicast - b.Ideal
	if den <= 0 {
		return 0
	}
	return (b.Unicast - cost) / den * 100
}
