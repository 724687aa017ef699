package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// ScenarioPoint compares algorithms across the paper's three publication
// scenarios (mixtures of 1, 4 and 9 multivariate normals, §5.1).
type ScenarioPoint struct {
	Modes     int
	Alg       string
	Network   float64 // improvement %
	Unicast   float64 // per-event baseline on that scenario
	Broadcast float64
	Ideal     float64
}

// RunScenarios evaluates each algorithm at one K on all three publication
// mixtures. Every scenario gets its own environment (the publication model
// changes the empirical cell probabilities and therefore the clustering).
func RunScenarios(base StockEnvConfig, k int, specs []AlgorithmSpec) ([]ScenarioPoint, error) {
	if specs == nil {
		specs = DefaultAlgorithms()
	}
	if k == 0 {
		k = 100
	}
	var out []ScenarioPoint
	for _, modes := range []int{1, 4, 9} {
		cfg := base
		cfg.PubModes = modes
		env, err := NewStockEnv(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %d-mode: %w", modes, err)
		}
		for _, spec := range specs {
			costs, _, err := env.runGrid(spec, k, core.Config{})
			if err != nil {
				return nil, fmt.Errorf("experiments: scenario %d-mode %s: %w", modes, spec.Alg.Name(), err)
			}
			out = append(out, ScenarioPoint{
				Modes:     modes,
				Alg:       spec.Alg.Name(),
				Network:   sim.Improvement(env.Baselines, costs.Network),
				Unicast:   env.Baselines.Unicast,
				Broadcast: env.Baselines.Broadcast,
				Ideal:     env.Baselines.Ideal,
			})
		}
	}
	return out, nil
}

// ScenarioSpecs returns a compact line-up for the scenario comparison.
func ScenarioSpecs() []AlgorithmSpec {
	return []AlgorithmSpec{
		{Alg: &cluster.KMeans{Variant: cluster.MacQueen}, Budget: 3000},
		{Alg: &cluster.KMeans{Variant: cluster.Forgy}, Budget: 3000},
		{Alg: &cluster.MST{}, Budget: 3000},
	}
}

// RenderScenarios writes the scenario comparison as an aligned table.
func RenderScenarios(w io.Writer, title string, pts []ScenarioPoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "modes\talgorithm\timprovement %\tunicast\tbroadcast\tideal")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%s\t%.1f\t%.0f\t%.0f\t%.0f\n",
			p.Modes, p.Alg, p.Network, p.Unicast, p.Broadcast, p.Ideal)
	}
	return tw.Flush()
}

// RenderScenariosCSV writes the scenario comparison as CSV.
func RenderScenariosCSV(w io.Writer, pts []ScenarioPoint) error {
	if _, err := fmt.Fprintln(w, "modes,algorithm,network_improvement,unicast,broadcast,ideal"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d,%s,%.3f,%.2f,%.2f,%.2f\n",
			p.Modes, p.Alg, p.Network, p.Unicast, p.Broadcast, p.Ideal); err != nil {
			return err
		}
	}
	return nil
}
