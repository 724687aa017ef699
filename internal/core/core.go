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
	"sort"

	"repro/internal/cluster"
	"repro/internal/matching"
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
	// model is the engine's one cost model. Decide prices through it;
	// snapshot decide workers price through views of it (NewSPTView) and
	// the overlay table builds through it, all sharing one tree cache.
	model *multicast.Model
	tree  *rtree.Tree  // dynamic subscription index
	live  map[int]bool // subscription slots still active

	// Grid-strategy state.
	gridIdx *matching.GridIndex
	gridIn  *cluster.Input
	gridRes *cluster.Result
	// No-Loss-strategy state.
	nlIdx *matching.NoLossIndex

	groupNodes [][]topology.NodeID
	overlays   *overlayTable

	// quarantined groups are skipped by Decide (fallback to unicast) until
	// the next Refresh/rebuild; the broker's fault-tolerance layer marks
	// groups whose deliveries persistently fail.
	quarantined map[int]bool

	stale bool // groups no longer reflect the current subscriptions

	// Snapshot cache: lastSnap is reused until one of the dirty flags
	// marks the corresponding state as changed (see Snapshot).
	lastSnap    *DecisionSnapshot
	snapVersion int64
	dirtySubs   bool // tree / subscription slice changed
	dirtyGroups bool // group tables, overlays or indexes changed
	dirtyQuar   bool // quarantine set changed

	tel engineTelemetry
}

// engineTelemetry caches the engine's instruments. All handles are nil
// until Instrument is called; every recording site is nil-safe, and sites
// that would pay a time.Now() guard on the histogram being present.
type engineTelemetry struct {
	decides          *telemetry.Counter
	decideNs         *telemetry.Histogram
	refreshes        *telemetry.Counter
	refreshNs        *telemetry.Histogram
	rebuilds         *telemetry.Counter
	quarantines      *telemetry.Counter
	quarantineClears *telemetry.Counter
	subsAdded        *telemetry.Counter
	subsRemoved      *telemetry.Counter
	liveGroups       *telemetry.Gauge
}

// Instrument publishes the engine's metrics into the registry under scope
// "core": decide latency, refresh duration, full rebuilds, quarantine
// churn (set + cleared), subscription dynamics and the live group count.
// Call before handing the engine to a broker (the decision goroutine owns
// it afterwards). A nil registry is a no-op.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	s := reg.Scope("core")
	if s == nil {
		return
	}
	e.tel = engineTelemetry{
		decides:          s.Counter("decides"),
		decideNs:         s.Histogram("decide_ns", telemetry.LatencyBuckets()),
		refreshes:        s.Counter("refreshes"),
		refreshNs:        s.Histogram("refresh_ns", telemetry.LatencyBuckets()),
		rebuilds:         s.Counter("rebuilds"),
		quarantines:      s.Counter("quarantines"),
		quarantineClears: s.Counter("quarantine_clears"),
		subsAdded:        s.Counter("subs_added"),
		subsRemoved:      s.Counter("subs_removed"),
		liveGroups:       s.Gauge("live_groups"),
	}
	e.tel.liveGroups.Set(int64(len(e.groupNodes)))
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

// clearQuarantines drops all quarantines, counting the churn.
func (e *Engine) clearQuarantines() {
	e.tel.quarantineClears.Add(int64(len(e.quarantined)))
	e.quarantined = nil
	e.dirtyQuar = true
}

// markRebuilt flags every snapshot-visible structure as changed after a
// full index/group reconstruction.
func (e *Engine) markRebuilt() {
	e.dirtySubs, e.dirtyGroups, e.dirtyQuar = true, true, true
}

// rebuild reconstructs every index and the multicast groups from scratch.
func (e *Engine) rebuild() error {
	e.tel.rebuilds.Inc()
	w, err := workload.NewCustomWorld(e.graph, e.axes, e.subs)
	if err != nil {
		return fmt.Errorf("core: world: %w", err)
	}
	grid, err := space.NewGrid(e.axes)
	if err != nil {
		return fmt.Errorf("core: grid: %w", err)
	}
	tree := rtree.New(w.Dim)
	live := make(map[int]bool, len(w.Subs))
	for i, s := range w.Subs {
		if err := tree.Insert(s.Rect, i); err != nil {
			return fmt.Errorf("core: indexing subscription %d: %w", i, err)
		}
		live[i] = true
	}
	e.world, e.grid, e.tree, e.live = w, grid, tree, live

	if e.cfg.NoLoss != nil {
		res, err := noloss.Build(w, e.train, *e.cfg.NoLoss)
		if err != nil {
			return fmt.Errorf("core: no-loss: %w", err)
		}
		idx, err := matching.NewNoLossIndex(res, e.cfg.Groups)
		if err != nil {
			return fmt.Errorf("core: no-loss index: %w", err)
		}
		e.nlIdx = idx
		e.gridIdx, e.gridIn, e.gridRes = nil, nil, nil
		e.groupNodes = make([][]topology.NodeID, len(idx.Groups()))
		for i := range idx.Groups() {
			g := idx.Groups()[i]
			e.groupNodes[i] = g.NodesOf(w)
		}
		e.overlays = newOverlayTable(e.model, e.groupNodes)
		e.clearQuarantines()
		e.markRebuilt()
		e.tel.liveGroups.Set(int64(len(e.groupNodes)))
		e.stale = false
		return nil
	}

	in, err := e.buildInput(w, grid)
	if err != nil {
		return fmt.Errorf("core: clustering input: %w", err)
	}
	assign, err := e.cfg.Algorithm.Cluster(in, e.cfg.Groups)
	if err != nil {
		return fmt.Errorf("core: clustering: %w", err)
	}
	return e.adoptGridAssignment(in, assign)
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
	idx, err := matching.NewGridIndex(e.grid, res)
	if err != nil {
		return fmt.Errorf("core: grid index: %w", err)
	}
	// Attach compressed mirrors to the now-frozen group vectors: the decide
	// plane's membership tests and the snapshot readers go through them for
	// sparse groups.
	res.PackMembers()
	e.gridIn, e.gridRes, e.gridIdx = in, res, idx
	e.nlIdx = nil
	e.groupNodes = make([][]topology.NodeID, len(res.Groups))
	for i := range res.Groups {
		e.groupNodes[i] = res.Groups[i].NodesOf(e.world)
	}
	// Overlays are built lazily on first ALM costing (see overlayTable):
	// eager per-group Prim over the metric closure made construction
	// quadratic in group size and is pure waste for runs that never price
	// app-level multicast.
	e.overlays = newOverlayTable(e.model, e.groupNodes)
	e.clearQuarantines()
	e.markRebuilt()
	e.tel.liveGroups.Set(int64(len(e.groupNodes)))
	e.stale = false
	return nil
}

// World exposes the engine's current world view. Treat it as read-only;
// mutate subscriptions through AddSubscription and RemoveSubscription.
func (e *Engine) World() *workload.World { return e.world }

// Model exposes the engine's cost model.
func (e *Engine) Model() *multicast.Model { return e.model }

// NumGroups returns the number of non-empty multicast groups in use.
func (e *Engine) NumGroups() int { return len(e.groupNodes) }

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

// Quarantine marks multicast group g unusable: Decide stops routing events
// through it (falling back to unicast for its members) until the next
// Refresh or rebuild clears the quarantine. The broker invokes this when
// deliveries to a group member persistently fail (node down, link
// partitioned) so that the decision stage degrades gracefully instead of
// feeding an unreachable group.
func (e *Engine) Quarantine(g int) {
	if g < 0 || g >= len(e.groupNodes) {
		panic(fmt.Sprintf("core: quarantine group %d out of range [0,%d)", g, len(e.groupNodes)))
	}
	if e.quarantined == nil {
		e.quarantined = make(map[int]bool)
	}
	if !e.quarantined[g] {
		e.tel.quarantines.Inc()
		e.dirtyQuar = true
	}
	e.quarantined[g] = true
}

// Quarantined reports whether group g is currently quarantined.
func (e *Engine) Quarantined(g int) bool { return e.quarantined[g] }

// NumQuarantined returns how many groups are currently quarantined.
func (e *Engine) NumQuarantined() int { return len(e.quarantined) }

// QuarantinedGroups returns the quarantined group indices, ascending.
func (e *Engine) QuarantinedGroups() []int {
	out := make([]int, 0, len(e.quarantined))
	for g := range e.quarantined {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// Group returns the composition of multicast group i in [0, NumGroups()).
func (e *Engine) Group(i int) GroupInfo {
	if i < 0 || i >= len(e.groupNodes) {
		panic(fmt.Sprintf("core: group %d out of range [0,%d)", i, len(e.groupNodes)))
	}
	return GroupInfo{
		Index:       i,
		Nodes:       append([]topology.NodeID(nil), e.groupNodes[i]...),
		OverlayCost: e.overlays.get(i).TreeCost,
	}
}
