// Package core is the orchestration layer of the reproduction: a running
// content-based pub-sub Engine that owns the subscription index, the
// precomputed multicast groups and the per-event delivery decision loop
// (match → route → choose unicast/multicast), plus the subscription
// dynamics the paper sketches as future work — additions and removals with
// warm-started re-clustering.
//
// The Engine unifies the paper's two clustering families behind one
// configuration: a grid-based Algorithm (K-means, Forgy, MST, Pairs) or the
// No-Loss intersection algorithm. Delivery decisions follow Figures 5
// and 6, extended so that a group that no longer covers every interested
// subscriber (possible between dynamic updates) is topped up with unicast
// rather than losing messages.
package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/rtree"
	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config selects and tunes the clustering strategy of an Engine.
type Config struct {
	// Groups is the number of available multicast groups K. Required.
	Groups int
	// Algorithm is the grid-based clustering algorithm; ignored when
	// NoLoss is set. Defaults to Forgy K-means (the paper's recommended
	// choice).
	Algorithm cluster.Algorithm
	// CellBudget caps the hyper-cells fed to the grid algorithm
	// (0 = unlimited).
	CellBudget int
	// NoLoss switches the Engine to the No-Loss strategy.
	NoLoss *noloss.Config
	// Threshold enables the Fig 5 optimisation: when the fraction of group
	// members interested in an event falls below it, deliver by unicast.
	Threshold float64
	// CellProb, when set, supplies closed-form cell probabilities to the
	// grid framework instead of estimating them from the training events
	// (see workload.World.AnalyticCellProb for the generated workloads).
	CellProb func(space.Rect) float64
	// DynamicMethod enables the paper's §1 distribution-method decision:
	// for every event the Engine prices group multicast (with unicast
	// top-up), pure per-node unicast, and broadcast under the
	// network-supported framework, and delivers by the cheapest. Without
	// it, a routed group is always multicast (modulo Threshold).
	DynamicMethod bool
	// Parallelism pins the clustering worker count used by rebuilds and
	// Refresh: values > 0 are applied to Algorithm when it implements
	// cluster.Parallel; 0 keeps the algorithm's own setting (whose zero
	// value already means GOMAXPROCS). Negative values are rejected.
	Parallelism int
}

func (c Config) validate() error {
	if c.Groups < 1 {
		return fmt.Errorf("core: Groups = %d, need ≥ 1", c.Groups)
	}
	if c.Threshold < 0 || c.Threshold > 1 {
		return fmt.Errorf("core: Threshold = %v, need [0,1]", c.Threshold)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism = %d, need ≥ 0", c.Parallelism)
	}
	return nil
}

// Engine is a configured pub-sub delivery system. It is not safe for
// concurrent use.
type Engine struct {
	cfg   Config
	graph *topology.Graph
	axes  []space.Axis
	subs  []workload.Subscription
	train []workload.Event

	world *workload.World
	grid  *space.Grid
	// model is the engine's one cost model. Publish prices through it;
	// snapshot decide workers price through views of it (NewSPTView) and
	// the overlay table builds through it, all sharing one tree cache.
	model *multicast.Model
	tree  *rtree.Tree  // dynamic subscription index
	live  map[int]bool // subscription slots still active

	// groups is the current group generation, shared with every snapshot
	// taken of it. gridRes is the grid clustering it was built from (nil
	// under No-Loss): a warm Refresh seeds from its CellGroup.
	groups  *groupTable
	gridRes *cluster.Result

	stale bool // groups no longer reflect the current subscriptions

	build BuildTimes // phases of the last rebuild

	// Snapshot cache: lastSnap is reused until dirty marks the index, the
	// subscription slice or the group table as changed (see Snapshot).
	lastSnap    *DecisionSnapshot
	snapVersion int64
	dirty       bool

	tel engineTelemetry
}

// engineTelemetry caches the engine's instruments. All handles are nil
// until Instrument is called; every recording site is nil-safe, and sites
// that would pay a time.Now() guard on the histogram being present.
type engineTelemetry struct {
	decides     *telemetry.Counter
	decideNs    *telemetry.Histogram
	refreshes   *telemetry.Counter
	refreshNs   *telemetry.Histogram
	rebuilds    *telemetry.Counter
	subsAdded   *telemetry.Counter
	subsRemoved *telemetry.Counter
	liveGroups  *telemetry.Gauge
}

// Instrument publishes the engine's metrics into the registry under scope
// "core": decide latency, refresh duration, full rebuilds, subscription
// dynamics and the live group count.
// Call before handing the engine to a broker (the decision goroutine owns
// it afterwards). A nil registry is a no-op.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	s := reg.Scope("core")
	if s == nil {
		return
	}
	e.tel = engineTelemetry{
		decides:     s.Counter("decides"),
		decideNs:    s.Histogram("decide_ns", telemetry.LatencyBuckets()),
		refreshes:   s.Counter("refreshes"),
		refreshNs:   s.Histogram("refresh_ns", telemetry.LatencyBuckets()),
		rebuilds:    s.Counter("rebuilds"),
		subsAdded:   s.Counter("subs_added"),
		subsRemoved: s.Counter("subs_removed"),
		liveGroups:  s.Gauge("live_groups"),
	}
	e.tel.liveGroups.Set(int64(e.NumGroups()))
}

// New builds an Engine over a network, a subscription set, and a training
// event sample used to estimate publication probabilities.
func New(g *topology.Graph, axes []space.Axis, subs []workload.Subscription, train []workload.Event, cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("core: no training events")
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = &cluster.KMeans{Variant: cluster.Forgy}
	}
	if cfg.Parallelism > 0 {
		if p, ok := cfg.Algorithm.(cluster.Parallel); ok {
			p.SetParallelism(cfg.Parallelism)
		}
	}
	e := &Engine{
		cfg:   cfg,
		graph: g,
		axes:  append([]space.Axis(nil), axes...),
		subs:  append([]workload.Subscription(nil), subs...),
		train: train,
		model: multicast.NewModel(g),
	}
	if err := e.rebuild(); err != nil {
		return nil, err
	}
	return e, nil
}

// NewFromWorld is a convenience constructor from a generated workload.
func NewFromWorld(w *workload.World, train []workload.Event, cfg Config) (*Engine, error) {
	if w == nil {
		return nil, fmt.Errorf("core: nil world")
	}
	return New(w.Graph, w.Axes, w.Subs, train, cfg)
}

// reindex installs a fresh world and grid and a subscription index over
// every slot of w, all live.
func (e *Engine) reindex(w *workload.World, grid *space.Grid) error {
	tree, err := indexSubs(w)
	if err != nil {
		return err
	}
	live := make(map[int]bool, len(w.Subs))
	for i := range w.Subs {
		live[i] = true
	}
	e.world, e.grid, e.tree, e.live = w, grid, tree, live
	return nil
}

// indexSubs bulk-loads the subscription index over every slot of w, the
// id of each rectangle being its slot. Every later snapshot shares these
// nodes, and every decide searches them.
func indexSubs(w *workload.World) (*rtree.Tree, error) {
	rects := make([]space.Rect, len(w.Subs))
	for i, s := range w.Subs {
		rects[i] = s.Rect
	}
	tree, err := rtree.Build(w.Dim, rects)
	if err != nil {
		return nil, fmt.Errorf("core: indexing subscriptions: %w", err)
	}
	return tree, nil
}

// BuildTimes splits the wall-clock time of the engine's last rebuild — by
// New, NewFromWorld or Refresh — into its consecutive phases: the world,
// grid and subscription R*-tree bulk load (Index); rasterising, coalescing
// and ranking the grid clustering input (Input; zero under No-Loss); the
// clustering algorithm (Cluster; under No-Loss, noloss.Build); and the group
// vectors, routing index and each group's member nodes (Groups).
type BuildTimes struct {
	Index, Input, Cluster, Groups time.Duration
}

func (b BuildTimes) String() string {
	r := func(d time.Duration) time.Duration { return d.Round(100 * time.Microsecond) }
	return fmt.Sprintf("index %v, input %v, cluster %v, groups %v", r(b.Index), r(b.Input), r(b.Cluster), r(b.Groups))
}

// LastBuild reports the phase times of the engine's last rebuild.
func (e *Engine) LastBuild() BuildTimes { return e.build }

// lap returns the time elapsed since *t and moves *t to now.
func lap(t *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*t)
	*t = now
	return d
}

// rebuild reconstructs every index and the multicast groups from scratch.
func (e *Engine) rebuild() error {
	e.tel.rebuilds.Inc()
	t := time.Now()
	w, err := workload.NewCustomWorld(e.graph, e.axes, e.subs)
	if err != nil {
		return fmt.Errorf("core: world: %w", err)
	}
	grid, err := space.NewGrid(e.axes)
	if err != nil {
		return fmt.Errorf("core: grid: %w", err)
	}
	if err := e.reindex(w, grid); err != nil {
		return err
	}
	e.build = BuildTimes{Index: lap(&t)}

	if e.cfg.NoLoss != nil {
		res, err := noloss.Build(w, e.train, *e.cfg.NoLoss)
		if err != nil {
			return fmt.Errorf("core: no-loss: %w", err)
		}
		e.build.Cluster = lap(&t)
		groups, err := noLossGroups(w, res, e.cfg.Groups, e.model)
		if err != nil {
			return err
		}
		e.adoptGroups(groups, nil)
		e.build.Groups = lap(&t)
		return nil
	}

	in, err := e.buildInput(w, grid)
	if err != nil {
		return fmt.Errorf("core: clustering input: %w", err)
	}
	e.build.Input = lap(&t)
	assign, err := e.cfg.Algorithm.Cluster(in, e.cfg.Groups)
	if err != nil {
		return fmt.Errorf("core: clustering: %w", err)
	}
	e.build.Cluster = lap(&t)
	if err := e.adoptGridAssignment(in, assign); err != nil {
		return err
	}
	e.build.Groups = lap(&t)
	return nil
}

// buildInput selects the configured probability source.
func (e *Engine) buildInput(w *workload.World, grid *space.Grid) (*cluster.Input, error) {
	if e.cfg.CellProb != nil {
		return cluster.BuildInputAnalytic(w, grid, e.cfg.CellProb, e.cfg.CellBudget)
	}
	return cluster.BuildInput(w, grid, e.train, e.cfg.CellBudget)
}

func (e *Engine) adoptGridAssignment(in *cluster.Input, assign cluster.Assignment) error {
	res, err := cluster.BuildResult(in, assign)
	if err != nil {
		return fmt.Errorf("core: materialising groups: %w", err)
	}
	groups, err := gridGroups(e.world, e.grid, res, e.model)
	if err != nil {
		return err
	}
	e.adoptGroups(groups, res)
	return nil
}

// adoptGroups installs a fresh group generation and the grid clustering it
// came from (nil under No-Loss).
func (e *Engine) adoptGroups(groups *groupTable, gridRes *cluster.Result) {
	e.groups, e.gridRes = groups, gridRes
	e.dirty = true
	e.tel.liveGroups.Set(int64(len(groups.nodes)))
	e.stale = false
}

// World exposes the engine's current world view. Treat it as read-only;
// mutate subscriptions through AddSubscription and RemoveSubscription.
func (e *Engine) World() *workload.World { return e.world }

// Model exposes the engine's cost model.
func (e *Engine) Model() *multicast.Model { return e.model }

// NumGroups returns the number of non-empty multicast groups in use.
func (e *Engine) NumGroups() int { return len(e.groups.nodes) }

// Stale reports whether subscriptions changed since groups were built.
func (e *Engine) Stale() bool { return e.stale }

// NumSubscriptions returns the live subscription count.
func (e *Engine) NumSubscriptions() int { return e.tree.Len() }

// GroupInfo describes one precomputed multicast group.
type GroupInfo struct {
	Index int
	// Nodes are the member nodes (copy; safe to retain).
	Nodes []topology.NodeID
	// OverlayCost is the application-level overlay MST cost.
	OverlayCost float64
}

// Group returns the composition of multicast group i in [0, NumGroups()).
func (e *Engine) Group(i int) GroupInfo {
	if i < 0 || i >= e.NumGroups() {
		panic(fmt.Sprintf("core: group %d out of range [0,%d)", i, e.NumGroups()))
	}
	return GroupInfo{
		Index:       i,
		Nodes:       append([]topology.NodeID(nil), e.groups.nodes[i]...),
		OverlayCost: e.groups.overlay(i).TreeCost,
	}
}
