package experiments

import (
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// costBuckets builds linear cost buckets anchored to the environment's
// baselines: the range [0, ~1.3×max(unicast, broadcast)] covers every
// sensible per-event delivery cost, and anything pricier lands in the
// overflow bucket.
func costBuckets(b sim.Baselines) telemetry.Buckets {
	hi := b.Unicast
	if b.Broadcast > hi {
		hi = b.Broadcast
	}
	if hi <= 0 {
		hi = 1
	}
	return telemetry.LinearBuckets(0, hi/24, 32)
}

// fig7Scope holds the per-algorithm instruments of a Figure 7 run. Every
// instrument is nil when the run records nothing.
type fig7Scope struct {
	net       *telemetry.Histogram
	app       *telemetry.Histogram
	clusterNs *telemetry.Histogram
	events    *telemetry.Counter
}

func newFig7Scope(reg *telemetry.Registry, alg string, b sim.Baselines) *fig7Scope {
	s := reg.Scope("fig7/" + alg)
	if s == nil {
		return &fig7Scope{}
	}
	return &fig7Scope{
		net:       s.Histogram("net_cost", costBuckets(b)),
		app:       s.Histogram("app_cost", costBuckets(b)),
		clusterNs: s.Histogram("cluster_ns", telemetry.LatencyBuckets()),
		events:    s.Counter("events"),
	}
}

// observer returns the sim.Evaluate hook feeding the scope's histograms,
// or nil when the scope records nothing.
func (fs *fig7Scope) observer() func(net, app float64) {
	if fs.events == nil {
		return nil
	}
	return func(net, app float64) {
		fs.events.Inc()
		fs.net.Observe(net)
		fs.app.Observe(app)
	}
}
