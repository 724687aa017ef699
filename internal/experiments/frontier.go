package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/matching"
	"repro/internal/multicast"
	"repro/internal/sim"
	"repro/internal/space"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/workload"
)

// This file probes the two frontiers the paper names but leaves open:
// grid granularity ("cell-based clustering works well when … the
// granularity of subscription interest is not too high") and event-space
// dimensionality ("we leave the high-dimensional case for future study").

// ResolutionPoint measures clustering quality as the grid resolution
// scales: Factor multiplies every axis's cell count.
type ResolutionPoint struct {
	Factor     float64
	GridCells  int
	HyperCells int
	Network    float64 // improvement %
}

// RunGridResolution sweeps the grid granularity on the standard stock
// environment, re-deriving the clustering input at each resolution.
func RunGridResolution(env *StockEnv, k int, factors []float64) ([]ResolutionPoint, error) {
	if len(factors) == 0 {
		factors = []float64{0.25, 0.5, 1, 2, 3}
	}
	if k == 0 {
		k = 100
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	var out []ResolutionPoint
	for _, f := range factors {
		axes := make([]space.Axis, len(env.World.Axes))
		for d, a := range env.World.Axes {
			cells := int(float64(a.Cells)*f + 0.5)
			if cells < 1 {
				cells = 1
			}
			axes[d] = space.Axis{Lo: a.Lo, Hi: a.Hi, Cells: cells}
		}
		grid, err := space.NewGrid(axes)
		if err != nil {
			return nil, fmt.Errorf("experiments: resolution %v: %w", f, err)
		}
		in, err := cluster.BuildInput(env.World, grid, env.Train, 6000)
		if err != nil {
			return nil, fmt.Errorf("experiments: resolution %v: %w", f, err)
		}
		res, _, err := clusterGrid(in, alg, k)
		if err != nil {
			return nil, err
		}
		costs, err := replayGrid(env.World, grid, res, env.Model, env.Eval, core.Config{})
		if err != nil {
			return nil, err
		}
		out = append(out, ResolutionPoint{
			Factor:     f,
			GridCells:  grid.NumCells(),
			HyperCells: in.TotalHyperCells,
			Network:    sim.Improvement(env.Baselines, costs.Network),
		})
	}
	return out, nil
}

// RenderResolution writes the resolution sweep.
func RenderResolution(w io.Writer, title string, pts []ResolutionPoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "resolution ×\tgrid cells\thyper-cells\timprovement %")
	for _, p := range pts {
		fmt.Fprintf(tw, "%g\t%d\t%d\t%.1f\n", p.Factor, p.GridCells, p.HyperCells, p.Network)
	}
	return tw.Flush()
}

// DimPoint measures the grid framework as event-space dimensionality
// grows on a synthetic workload with fixed per-dimension structure.
type DimPoint struct {
	Dim        int
	GridCells  int
	HyperCells int
	Network    float64 // improvement %
	Ideal      float64 // per-event ideal cost (context)
}

// RunDimensionality builds, for each dimensionality d, a synthetic world:
// subscriptions pick an interval of mean width 4 in every dimension
// centred N(10, 4) over the (0, 20] domain (wildcarding each dimension
// with probability 0.3), events are N(10, 4) per dimension, and the grid
// carries 8 cells per axis. Clustering runs at K groups with a 6000-cell
// budget — the same regime as Figure 7 — so the sweep isolates the effect
// of dimensionality on the grid framework.
func RunDimensionality(netCfg topology.Config, k int, dims []int, seed int64) ([]DimPoint, error) {
	if len(dims) == 0 {
		dims = []int{2, 3, 4, 5, 6}
	}
	if k == 0 {
		k = 100
	}
	topo := netCfg
	topo.Seed = seed
	g, err := topology.Generate(topo)
	if err != nil {
		return nil, err
	}
	hosts := make([]topology.NodeID, 0, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(topology.NodeID(i)).Kind == topology.StubNode {
			hosts = append(hosts, topology.NodeID(i))
		}
	}
	alg := &cluster.KMeans{Variant: cluster.Forgy}
	var out []DimPoint
	for _, dim := range dims {
		r := stats.NewRand(seed + int64(dim))
		subs := make([]workload.Subscription, 1000)
		for i := range subs {
			rect := make(space.Rect, dim)
			for d := range rect {
				if stats.Bernoulli(r, 0.3) {
					rect[d] = space.Full()
					continue
				}
				center := stats.Gaussian(r, 10, 4)
				width := stats.BoundedPareto(r, 2, 1, 20)
				rect[d] = space.Span(center-width/2, center+width/2)
			}
			subs[i] = workload.Subscription{Owner: hosts[r.Intn(len(hosts))], Rect: rect}
		}
		axes := make([]space.Axis, dim)
		for d := range axes {
			axes[d] = space.Axis{Lo: -2, Hi: 22, Cells: 8}
		}
		w, err := workload.NewCustomWorld(g, axes, subs)
		if err != nil {
			return nil, fmt.Errorf("experiments: dim %d: %w", dim, err)
		}
		dimCopy := dim
		w.SetEventSource(func(r *rand.Rand) workload.Event {
			p := make(space.Point, dimCopy)
			for d := range p {
				p[d] = stats.Gaussian(r, 10, 4)
			}
			return workload.Event{Pub: hosts[r.Intn(len(hosts))], Point: p}
		})

		grid, err := space.NewGrid(axes)
		if err != nil {
			return nil, err
		}
		train := w.Events(2000, seed+int64(dim)+100)
		eval := w.Events(300, seed+int64(dim)+200)
		model := multicast.NewModel(g)
		m, err := matching.NewRTree(w)
		if err != nil {
			return nil, err
		}
		base, err := sim.MeasureBaselines(model, w, m, eval)
		if err != nil {
			return nil, err
		}
		in, err := cluster.BuildInput(w, grid, train, 6000)
		if err != nil {
			return nil, err
		}
		res, _, err := clusterGrid(in, alg, k)
		if err != nil {
			return nil, err
		}
		costs, err := replayGrid(w, grid, res, model, eval, core.Config{})
		if err != nil {
			return nil, err
		}
		out = append(out, DimPoint{
			Dim:        dim,
			GridCells:  grid.NumCells(),
			HyperCells: in.TotalHyperCells,
			Network:    sim.Improvement(base, costs.Network),
			Ideal:      base.Ideal,
		})
	}
	return out, nil
}

// RenderDimensionality writes the dimensionality sweep.
func RenderDimensionality(w io.Writer, title string, pts []DimPoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dims\tgrid cells\thyper-cells\timprovement %")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.1f\n", p.Dim, p.GridCells, p.HyperCells, p.Network)
	}
	return tw.Flush()
}
