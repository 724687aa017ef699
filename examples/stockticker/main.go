// Stockticker compares every clustering algorithm of the paper on the
// §5.1 stock-market workload: 1000 {bst, name, quote, volume} subscriptions
// over a 600-node network, publications from a gaussian mixture, and K = 50
// multicast groups. It prints the per-event delivery cost and improvement
// over unicast for each algorithm — a one-screen miniature of Figure 7.
//
// Run with:
//
//	go run ./examples/stockticker
package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"text/tabwriter"
	"time"

	pubsub "repro"
)

func main() {
	g, err := pubsub.GenerateTopology(pubsub.Eval600)
	if err != nil {
		log.Fatal(err)
	}
	w, err := pubsub.NewStockWorld(g, pubsub.StockConfig{
		NumSubscriptions: 1000,
		BlockSplit:       []float64{0.4, 0.3, 0.3},
		NameMeans:        []float64{3, 10, 17},
		PubModes:         1,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}
	train := w.Events(2000, 2)
	eval := w.Events(300, 3)

	// Baselines for normalisation.
	model := pubsub.NewCostModel(g)
	base, err := measureBaselines(model, w, eval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %d subscriptions on %d nodes; per-event baselines: unicast %.0f, broadcast %.0f, ideal %.0f\n\n",
		len(w.Subs), g.NumNodes(), base.unicast, base.broadcast, base.ideal)

	const K = 50
	strategies := []struct {
		name string
		cfg  pubsub.EngineConfig
	}{
		{"k-means", pubsub.EngineConfig{Groups: K, Algorithm: &pubsub.KMeans{Variant: pubsub.MacQueen}, CellBudget: 3000}},
		{"forgy", pubsub.EngineConfig{Groups: K, Algorithm: &pubsub.KMeans{Variant: pubsub.Forgy}, CellBudget: 3000}},
		{"mst", pubsub.EngineConfig{Groups: K, Algorithm: pubsub.MST{}, CellBudget: 3000}},
		{"approx-pairs", pubsub.EngineConfig{Groups: K, Algorithm: &pubsub.Pairwise{Approx: true}, CellBudget: 1500}},
		{"no-loss", pubsub.EngineConfig{Groups: K, NoLoss: &pubsub.NoLossConfig{PoolSize: 3000, Iterations: 6}}},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tbuild time\tnetwork cost\timprovement\tapp-level cost\timprovement")
	for _, s := range strategies {
		start := time.Now()
		engine, err := pubsub.NewEngineFromWorld(w, train, s.cfg)
		if err != nil {
			log.Fatal(err)
		}
		build := time.Since(start)
		var net, alm float64
		for _, ev := range eval {
			_, c, err := engine.Publish(ev)
			if err != nil {
				log.Fatal(err)
			}
			net += c.Network
			alm += c.AppLevel
		}
		net /= float64(len(eval))
		alm /= float64(len(eval))
		fmt.Fprintf(tw, "%s\t%v\t%.0f\t%.1f%%\t%.0f\t%.1f%%\n",
			s.name, build.Round(time.Millisecond),
			net, base.improvement(net), alm, base.improvement(alm))
	}
	tw.Flush()
	fmt.Println("\n(100% = ideal multicast with one dedicated group per event; 0% = unicast)")
}

type baselines struct {
	unicast, broadcast, ideal float64
}

func (b baselines) improvement(cost float64) float64 {
	return (b.unicast - cost) / (b.unicast - b.ideal) * 100
}

// measureBaselines replays the events through the raw cost model.
func measureBaselines(model *pubsub.CostModel, w *pubsub.World, events []pubsub.Event) (baselines, error) {
	// Use a throwaway engine with K=1 as an exact matcher.
	engine, err := pubsub.NewEngineFromWorld(w, events, pubsub.EngineConfig{Groups: 1, CellBudget: 1})
	if err != nil {
		return baselines{}, err
	}
	var b baselines
	for _, ev := range events {
		d, _, err := engine.Publish(ev)
		if err != nil {
			return baselines{}, err
		}
		// MatchedSubs comes in index order; sum in slot order so the
		// floating-point total does not depend on the index's shape.
		matched := slices.Clone(d.MatchedSubs)
		slices.Sort(matched)
		for _, si := range matched {
			b.unicast += model.Dist(ev.Pub, w.Subs[si].Owner)
		}
		b.broadcast += model.BroadcastCost(ev.Pub)
		b.ideal += model.SPTCoverCost(ev.Pub, d.Interested)
	}
	n := float64(len(events))
	b.unicast /= n
	b.broadcast /= n
	b.ideal /= n
	return b, nil
}
