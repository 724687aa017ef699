package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/federate"
	"repro/internal/topology"
)

// FederatePoint is one row of the federation sweep: the same evaluation
// stream pushed through an in-process federation of N shards, checked
// exactly-once against the brute-force match and timed end to end.
type FederatePoint struct {
	// Shards is the federation width (1 = the router as pure overhead
	// over a single broker).
	Shards int
	// Straddlers counts pre-seeded subscriptions whose rectangle
	// intersects more than one tile — each is registered on every
	// intersecting shard, and matched by whichever one owns the event.
	Straddlers int
	// Stats is the router's cross-shard accounting after the stream.
	Stats federate.Stats
	// P50/P99 are publish→first-merged-delivery latencies.
	P50, P99 time.Duration
	// Duplicates and Missing are exactly-once violations against the
	// brute-force oracle; both must be zero.
	Duplicates int
	Missing    int
}

// FederateSweepConfig parameterises the federation sweep.
type FederateSweepConfig struct {
	ShardCounts []int // federation widths (default 1, 2, 4)
	Groups      int   // per-shard multicast groups K (default 40)
	CellBudget  int   // per-shard clustering cell budget (default 1500)
}

func (c *FederateSweepConfig) setDefaults() {
	if len(c.ShardCounts) == 0 {
		c.ShardCounts = []int{1, 2, 4}
	}
	if c.Groups == 0 {
		c.Groups = 40
	}
	if c.CellBudget == 0 {
		c.CellBudget = 1500
	}
}

// RunFederate replays the evaluation stream through federations of
// increasing width: the subscription space is rectangle-partitioned with
// federate.Derive, one broker per tile serves its tile world, and the
// router sends every event to its owning shard and merges deliveries.
// Every point is verified exactly-once against the brute-force match of
// the full world.
func RunFederate(env *StockEnv, cfg FederateSweepConfig) ([]FederatePoint, error) {
	cfg.setDefaults()
	pts := make([]FederatePoint, 0, len(cfg.ShardCounts))
	for _, n := range cfg.ShardCounts {
		pt, err := runFederateOne(env, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("experiments: federate %d shards: %w", n, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func runFederateOne(env *StockEnv, cfg FederateSweepConfig, n int) (FederatePoint, error) {
	tiles, err := federate.Derive(env.World, env.Train, n)
	if err != nil {
		return FederatePoint{}, err
	}

	// Per-copy tally for the oracle, plus a first-delivery signal per
	// global seq for the latency measurement (one publish outstanding at
	// a time, so the channel never backs up).
	type key struct {
		node topology.NodeID
		ev   int
	}
	evIndex := make(map[string]int, len(env.Eval))
	for i, ev := range env.Eval {
		evIndex[fmt.Sprintf("%d|%v", ev.Pub, ev.Point)] = i
	}
	var mu sync.Mutex
	counts := make(map[key]int)
	starts := make(map[int64]time.Time)
	firstCh := make(chan time.Duration, 1)
	r, err := federate.NewRouter(federate.Config{
		Tiles: tiles,
		Observer: func(node topology.NodeID, d broker.Delivery) {
			i, ok := evIndex[fmt.Sprintf("%d|%v", d.Event.Pub, d.Event.Point)]
			if !ok {
				return
			}
			mu.Lock()
			counts[key{node, i}]++
			t0, timed := starts[d.Seq]
			if timed {
				delete(starts, d.Seq)
			}
			mu.Unlock()
			if timed {
				firstCh <- time.Since(t0)
			}
		},
	})
	if err != nil {
		return FederatePoint{}, err
	}
	defer r.Close()
	for i, tile := range tiles {
		tw, err := federate.TileWorld(env.World, tile)
		if err != nil {
			return FederatePoint{}, err
		}
		engine, err := core.NewFromWorld(tw, env.Train, core.Config{
			Groups:     cfg.Groups,
			CellBudget: cfg.CellBudget,
			Algorithm:  &cluster.KMeans{Variant: cluster.Forgy},
		})
		if err != nil {
			return FederatePoint{}, err
		}
		b, err := broker.New(engine, broker.WithObserver(r.ShardObserver(i)))
		if err != nil {
			return FederatePoint{}, err
		}
		if err := r.Attach(i, b); err != nil {
			b.Close()
			return FederatePoint{}, err
		}
	}

	interested := make([]map[topology.NodeID]bool, len(env.Eval))
	for i, ev := range env.Eval {
		interested[i] = map[topology.NodeID]bool{}
		for _, s := range env.World.Subs {
			if s.Rect.Contains(ev.Point) {
				interested[i][s.Owner] = true
			}
		}
	}

	// Router seqs are dense from 0 in publish order, so the start time can
	// be recorded under seq i before the publish (recording after
	// PublishSeq returns would race its own deliveries). Events nobody
	// matches would never signal, so they are published untimed.
	lat := make([]time.Duration, 0, len(env.Eval))
	for i, ev := range env.Eval {
		timed := len(interested[i]) > 0
		if timed {
			mu.Lock()
			starts[int64(i)] = time.Now()
			mu.Unlock()
		}
		if _, err := r.PublishSeq(ev); err != nil {
			return FederatePoint{}, err
		}
		if timed {
			lat = append(lat, <-firstCh)
		}
	}
	if err := r.Close(); err != nil {
		return FederatePoint{}, err
	}

	pt := FederatePoint{Shards: n, Stats: r.Stats()}
	for _, s := range env.World.Subs {
		var cover []int
		if len(tiles.Covering(cover, s.Rect)) > 1 {
			pt.Straddlers++
		}
	}
	mu.Lock()
	for i := range env.Eval {
		for node := range interested[i] {
			switch c := counts[key{node, i}]; {
			case c == 0:
				pt.Missing++
			case c > 1:
				pt.Duplicates += c - 1
			}
		}
	}
	mu.Unlock()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pt.P50 = lat[len(lat)/2]
		pt.P99 = lat[(len(lat)*99)/100]
	}
	return pt, nil
}

// RenderFederate writes the federation sweep as an aligned text table.
func RenderFederate(w io.Writer, title string, pts []FederatePoint) error {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shards\tstraddlers\tpublished\tfanout\tdelivered\tsuppressed\tdup\tmissing\tp50\tp99")
	for _, p := range pts {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\n",
			p.Shards, p.Straddlers, p.Stats.Published, p.Stats.Fanout,
			p.Stats.Delivered, p.Stats.Suppressed, p.Duplicates, p.Missing,
			p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond))
	}
	return tw.Flush()
}

// RenderFederateCSV writes the federation sweep as CSV.
func RenderFederateCSV(w io.Writer, pts []FederatePoint) error {
	if _, err := fmt.Fprintln(w, "shards,straddlers,published,fanout,delivered,suppressed,duplicates,missing,p50_ns,p99_ns"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			p.Shards, p.Straddlers, p.Stats.Published, p.Stats.Fanout,
			p.Stats.Delivered, p.Stats.Suppressed, p.Duplicates, p.Missing,
			p.P50.Nanoseconds(), p.P99.Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}
