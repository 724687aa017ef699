package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/topology"
	"repro/internal/workload"
)

// ChurnOp is one scheduled subscription change, anchored to the event
// stream: apply it immediately before publishing the event with index
// BeforeEvent. Anchoring churn to event time (rather than wall time) keeps
// churn experiments deterministic and rate-independent.
type ChurnOp struct {
	// BeforeEvent is the event-stream index this op precedes. Ops are
	// emitted in non-decreasing BeforeEvent order.
	BeforeEvent int
	// Subscribe selects the op kind: true adds Sub, false removes a live
	// churned subscription.
	Subscribe bool
	// Sub is the subscription to add (Subscribe ops only).
	Sub workload.Subscription
	// Target, for unsubscribe ops, is the index into the executor's pool
	// of live churned subscriptions (in insertion order) to remove. The
	// generator tracks the same pool, so Target is always in range when
	// ops are applied in order.
	Target int
}

// ChurnConfig parameterises a Poisson churn schedule.
type ChurnConfig struct {
	// Rate is the expected number of churn operations per published event
	// (a Poisson process in event time; inter-arrival gaps are
	// exponential with mean 1/Rate). Must be > 0.
	Rate float64
	// Events is the schedule horizon: ops are generated for the half-open
	// event range [0, Events).
	Events int
	// Seed drives the schedule and the generated subscriptions.
	Seed int64
}

// GenerateChurn builds a deterministic Poisson churn schedule over w.
//
// Each op is a subscribe or unsubscribe with equal probability (always a
// subscribe while no churned subscription is live). New subscriptions
// clone the shape of a random existing subscription's rectangle — so
// churned interest follows the workload's distribution — and land on a
// uniformly random network node, subscriber or not; unsubscribes remove a
// uniformly random live churned subscription. Only churned subscriptions
// are ever removed; the base population stays intact, matching the paper's
// framing of dynamics as arrivals/departures on top of a standing set.
func GenerateChurn(w *workload.World, cfg ChurnConfig) ([]ChurnOp, error) {
	if w == nil || len(w.Subs) == 0 {
		return nil, fmt.Errorf("sim: churn needs a populated world")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("sim: churn rate %v, need > 0", cfg.Rate)
	}
	if cfg.Events <= 0 {
		return nil, fmt.Errorf("sim: churn horizon %d events", cfg.Events)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := w.Graph.NumNodes()

	var ops []ChurnOp
	alive := 0 // size of the executor's live churned-subscription pool
	// Poisson arrivals in continuous event time.
	for t := rng.ExpFloat64() / cfg.Rate; t < float64(cfg.Events); t += rng.ExpFloat64() / cfg.Rate {
		op := ChurnOp{BeforeEvent: int(t)}
		if alive == 0 || rng.Intn(2) == 0 {
			op.Subscribe = true
			tmpl := w.Subs[rng.Intn(len(w.Subs))]
			op.Sub = workload.Subscription{
				Owner: topology.NodeID(rng.Intn(nodes)),
				Rect:  tmpl.Rect.Clone(),
			}
			alive++
		} else {
			op.Target = rng.Intn(alive)
			alive--
		}
		ops = append(ops, op)
	}
	return ops, nil
}
