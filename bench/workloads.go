package main

import (
	"fmt"
	"time"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// shape is a deployment shape of pubsub-server.
type shape int

const (
	shapeSolo       shape = iota // one plain daemon
	shapeReplicated              // leader -data-dir + standby -replica-of
	shapeFed4                    // one daemon with -shards 4
)

// workloadDef is one benchmark workload. Everything here is a constant of
// the workload, not a knob: a result is only comparable with another result
// of the same name.
type workloadDef struct {
	name  string
	shape shape
	// subs is the pre-seeded population the daemon builds from -subs/-seed.
	subs int
	// rate is the open-loop publication rate in events/s.
	rate int
	// warmup precedes the measured window; its events are checked for
	// exactly-once delivery but not timed.
	warmup time.Duration
	// limit is the latency limit within_limit_share is counted against.
	limit time.Duration
	// maxEvents bounds the events one deployment may be sent (0 = no bound).
	maxEvents int
	// churnPairs is the number of subscribe+unsubscribe pairs per second
	// issued on the publisher connection (0 = read-only).
	churnPairs int
	// setups is how many times a run deploys the workload to time set-up
	// (at least two: the second deployment serves the measurement). The
	// small workloads start in under 2 s and vary more from start to
	// start, so they take more samples for about the same total time.
	setups int
	// tighter holds bounds `bench check` applies to this workload in place
	// of BENCHMARK.json's. That file has one bound per metric, which must
	// clear the noisiest workload's spread, or the driver refuses the
	// benchmark; where a metric repeats far better than that on this
	// workload, the bound it deserves here is recorded here.
	tighter map[string]float64
}

// allocsRepeat is the bound on server_allocs_per_event wherever the count
// does not depend on timing: NOISE.md has its quartile spread at 1.7 % or
// less on these workloads and at 4–7 % on replicated-small, where every
// blocked barrier wait allocates a timer and how many block follows the host.
var allocsRepeat = map[string]float64{"server_allocs_per_event": 0.03}

// Rates were sized once on the 2-core sandbox against the closed-loop
// capacity recorded in README.md (each is ≤ 50 % of it) and are frozen.
var workloads = []workloadDef{
	{
		name: "replicated-small", shape: shapeReplicated, subs: 1000, rate: 50, warmup: 2 * time.Second, limit: 20 * time.Millisecond,
		// The leader's checkpoint carries every node's dedup window and
		// grows by ≈ 800 B per event at this population; near 1 300 events
		// it outgrows what the replication link accepts in one frame, the
		// standby falls out and cannot resync, and the leader serves solo
		// from then on (README.md, "What the sizing runs found"). A
		// deployment is retired before that.
		maxEvents: 1000,
		setups:    4,
	},
	{
		name: "fed4-small", shape: shapeFed4, subs: 1000, rate: 2000, warmup: 2 * time.Second, limit: 20 * time.Millisecond,
		setups: 4, tighter: allocsRepeat,
	},
	{
		name: "solo-large", shape: shapeSolo, subs: 50000, rate: 200, warmup: 2 * time.Second, limit: 100 * time.Millisecond,
		setups: 3, tighter: allocsRepeat,
	},
	{
		name: "churn-large", shape: shapeSolo, subs: 50000, rate: 200, warmup: 2 * time.Second, limit: 100 * time.Millisecond, churnPairs: 40,
		setups: 3, tighter: allocsRepeat,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

const (
	// worldSeed is the daemon's -seed: the subscription population and the
	// topology are constants of a workload. The benchmark's -seed drives
	// what the generator makes — the event stream, the narrow rectangle and
	// the churn rectangles — so two seeds measure the same system under
	// different traffic, and a spread across seeds is measurement noise
	// rather than a difference between worlds.
	worldSeed = 1
	// fanOwners is F: the receiver subscribes to the whole space as this
	// many owner nodes, so every event owes exactly F interested deliveries.
	fanOwners = 8
	// numWindows splits the measured window; every gated timing is the
	// median of the per-window medians.
	numWindows = 6
)

// buildWorld reproduces cmd/pubsub-server's buildWorld: the generator needs
// the same topology (owner node ids) and event distribution the daemon was
// seeded with. Delivery correctness does not depend on the two agreeing —
// the narrow rectangle is checked by brute force against the events the
// generator itself made.
func buildWorld(subs int) (*workload.World, error) {
	topo := topology.Eval600
	topo.Seed = worldSeed
	g, err := topology.Generate(topo)
	if err != nil {
		return nil, err
	}
	return workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: subs,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         1,
		Seed:             worldSeed + 1,
	})
}

// traffic is everything the generator derives from -seed.
type traffic struct {
	world  *workload.World
	events []workload.Event
	// owners are the F whole-space owner nodes; narrowOwner holds the one
	// narrow rectangle; churnOwner owns the churned subscriptions. All are
	// transit nodes: the seeded population lives on stub nodes only, so
	// every delivery addressed to these nodes stems from the benchmark's
	// own subscriptions and can be counted exactly.
	owners      []topology.NodeID
	narrowOwner topology.NodeID
	churnOwner  topology.NodeID
	narrow      space.Rect
	// churnRects are cycled by the churn loop.
	churnRects []space.Rect
}

// makeTraffic builds the seeded inputs for n events.
func makeTraffic(w workloadDef, seed int64, n int) (*traffic, error) {
	world, err := buildWorld(w.subs)
	if err != nil {
		return nil, err
	}
	var transit []topology.NodeID
	for i := 0; i < world.Graph.NumNodes(); i++ {
		if world.Graph.Node(topology.NodeID(i)).Kind != topology.StubNode {
			transit = append(transit, topology.NodeID(i))
		}
	}
	if len(transit) < fanOwners+2 {
		return nil, fmt.Errorf("topology has %d transit nodes, need %d", len(transit), fanOwners+2)
	}
	tr := &traffic{
		world:       world,
		events:      world.Events(n, seed+3),
		owners:      transit[:fanOwners],
		narrowOwner: transit[fanOwners],
		churnOwner:  transit[fanOwners+1],
	}
	// The narrow rectangle is a rectangle of the seeded population, chosen
	// from -seed, that a modest share of the stream matches: both outcomes
	// (delivered, not delivered) must occur for the brute-force comparison
	// to mean something.
	probe := tr.events
	if len(probe) > 2000 {
		probe = probe[:2000]
	}
	start := int(uint64(seed*7919) % uint64(len(world.Subs)))
	tr.narrow = world.Subs[start].Rect
	for k := 0; k < len(world.Subs); k++ {
		r := world.Subs[(start+k)%len(world.Subs)].Rect
		hits := 0
		for _, ev := range probe {
			if r.Contains(ev.Point) {
				hits++
			}
		}
		if share := float64(hits) / float64(len(probe)); share >= 0.01 && share <= 0.25 {
			tr.narrow = r
			break
		}
	}
	off := int(uint64(seed*104729) % uint64(len(world.Subs)))
	for k := 0; k < 256; k++ {
		tr.churnRects = append(tr.churnRects, world.Subs[(off+k)%len(world.Subs)].Rect)
	}
	return tr, nil
}
