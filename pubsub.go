// Package pubsub is the public face of this reproduction of "Clustering
// Algorithms for Content-Based Publication-Subscription Systems" (Riabov,
// Liu, Wolf, Yu, Zhang — ICDCS 2002).
//
// The library models a content-based pub-sub system end to end:
//
//   - subscriptions are axis-aligned rectangles over an N-dimensional
//     event space; events are points (space types: Interval, Rect, Point);
//   - the network is a GT-ITM-style transit–stub topology with edge costs
//     (GenerateTopology and the NetXXX presets);
//   - delivery costs follow the paper's model: unicast, broadcast, ideal
//     multicast, dense-mode network multicast and application-level
//     overlay multicast (CostModel);
//   - the paper's clustering algorithms precompute K multicast groups:
//     K-Means, Forgy K-Means, MST, Pairwise Grouping, Approximate Pairwise
//     (grid-based framework) and No-Loss (rectangle intersections);
//   - an Engine ties it together: match each event (R*-tree), route it to
//     a group or fall back to unicast, and support live subscription
//     additions/removals with warm-started re-clustering.
//
// Quickstart:
//
//	g, _ := pubsub.GenerateTopology(pubsub.TopologyConfig{
//		TransitBlocks: 3, TransitPerBlock: 5, StubsPerTransit: 2, NodesPerStub: 20,
//	})
//	w, _ := pubsub.NewStockWorld(g, pubsub.StockConfig{NumSubscriptions: 1000, PubModes: 1})
//	train := w.Events(2000, 1)
//	engine, _ := pubsub.NewEngineFromWorld(w, train, pubsub.EngineConfig{Groups: 100})
//	for _, ev := range w.Events(500, 2) {
//		decision, costs, _ := engine.Publish(ev)
//		_ = decision
//		_ = costs
//	}
//
// The experiment runners behind every table and figure of the paper live
// in internal/experiments and are exposed through the pubsub-bench
// command.
package pubsub

import (
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/faults"
	"repro/internal/federate"
	"repro/internal/health"
	"repro/internal/multicast"
	"repro/internal/noloss"
	"repro/internal/replicate"
	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Event-space types.
type (
	// Interval is a half-open interval (Lo, Hi].
	Interval = space.Interval
	// Rect is an axis-aligned rectangle, one Interval per dimension.
	Rect = space.Rect
	// Point is a published event's coordinates.
	Point = space.Point
	// Axis is one dimension of the clustering grid.
	Axis = space.Axis
	// Grid is a regular grid over the event space.
	Grid = space.Grid
	// Predicate is one attribute's interest as a union of intervals.
	Predicate = space.Predicate
)

// Interval constructors.
var (
	// Span returns the interval (lo, hi].
	Span = space.Span
	// LeftOf returns (-inf, hi].
	LeftOf = space.LeftOf
	// RightOf returns (lo, +inf].
	RightOf = space.RightOf
	// FullInterval returns (-inf, +inf].
	FullInterval = space.Full
	// FullRect returns the all-space rectangle of a dimension.
	FullRect = space.FullRect
	// NewGrid builds a grid from axes.
	NewGrid = space.NewGrid
	// Decompose expands multi-interval predicates into disjoint rectangles
	// (the paper's §1 subscription decomposition).
	Decompose = space.Decompose
)

// Network types.
type (
	// Graph is an undirected weighted network with transit–stub structure.
	Graph = topology.Graph
	// NodeID identifies a network node.
	NodeID = topology.NodeID
	// TopologyConfig parameterises the transit–stub generator.
	TopologyConfig = topology.Config
)

// Topology presets and generator.
var (
	// GenerateTopology builds a random transit–stub network.
	GenerateTopology = topology.Generate
	// Net100, Net300, Net600 are the Table 1/2 networks; Eval600 is the
	// §5.1 evaluation network.
	Net100  = topology.Net100
	Net300  = topology.Net300
	Net600  = topology.Net600
	Eval600 = topology.Eval600
)

// Workload types.
type (
	// Subscription is an interest rectangle owned by a node.
	Subscription = workload.Subscription
	// Event is one publication.
	Event = workload.Event
	// World couples a network with subscriptions and an event source.
	World = workload.World
	// StockConfig parameterises the §5.1 stock workload.
	StockConfig = workload.StockConfig
	// RegionalConfig parameterises the §3 regionalism workload.
	RegionalConfig = workload.RegionalConfig
	// PrefDist selects uniform or gaussian §3 preferences.
	PrefDist = workload.PrefDist
)

// Workload constructors and constants.
var (
	// NewStockWorld generates the §5.1 workload.
	NewStockWorld = workload.NewStockWorld
	// NewRegionalWorld generates the §3 workload.
	NewRegionalWorld = workload.NewRegionalWorld
	// NewCustomWorld wraps caller-provided subscriptions.
	NewCustomWorld = workload.NewCustomWorld
)

// §3 preference families.
const (
	Uniform  = workload.Uniform
	Gaussian = workload.Gaussian
)

// Clustering types.
type (
	// ClusterAlgorithm partitions hyper-cells into multicast groups.
	ClusterAlgorithm = cluster.Algorithm
	// KMeans is the iterative clustering algorithm (MacQueen or Forgy).
	KMeans = cluster.KMeans
	// MST is the minimum-spanning-tree clustering algorithm.
	MST = cluster.MST
	// Pairwise is the (approximate) pairwise grouping algorithm.
	Pairwise = cluster.Pairwise
	// NoLossConfig parameterises the No-Loss algorithm.
	NoLossConfig = noloss.Config
)

// K-means variants.
const (
	MacQueen = cluster.MacQueen
	Forgy    = cluster.Forgy
)

// Cost model.
type (
	// CostModel prices deliveries on a network.
	CostModel = multicast.Model
	// Method is a distribution method.
	Method = multicast.Method
)

// NewCostModel creates a cost model over a network.
var NewCostModel = multicast.NewModel

// Distribution methods.
const (
	UnicastMethod           = multicast.Unicast
	BroadcastMethod         = multicast.Broadcast
	IdealMethod             = multicast.Ideal
	NetworkMulticastMethod  = multicast.NetworkMulticast
	AppLevelMulticastMethod = multicast.AppLevelMulticast
)

// Engine types.
type (
	// Engine is a running pub-sub delivery system.
	Engine = core.Engine
	// EngineConfig selects the clustering strategy.
	EngineConfig = core.Config
	// Decision is the delivery plan for one event.
	Decision = core.Decision
	// GroupInfo describes one precomputed multicast group.
	GroupInfo = core.GroupInfo
	// DeliveryCosts prices a decision under both multicast frameworks.
	DeliveryCosts = core.Costs
)

// Engine constructors.
var (
	// NewEngine builds an Engine from explicit parts.
	NewEngine = core.New
	// NewEngineFromWorld builds an Engine from a generated workload.
	NewEngineFromWorld = core.NewFromWorld
)

// Delivery fabric.
type (
	// Broker executes Engine decisions over an in-process delivery fabric
	// whose fan-out workers accept and account every copy.
	Broker = broker.Broker
	// BrokerStats aggregates broker delivery accounting.
	BrokerStats = broker.Stats
	// BrokerDelivery is one message copy arriving at a node.
	BrokerDelivery = broker.Delivery
	// ReliabilityConfig bounds the broker's retry protocol.
	ReliabilityConfig = broker.ReliabilityConfig
)

// Broker constructors and options.
var (
	// NewBroker starts a broker over an engine.
	NewBroker = broker.New
	// WithWorkers sets the broker's fan-out worker count.
	WithWorkers = broker.WithWorkers
	// WithDecideWorkers sets the decision worker count (0 = GOMAXPROCS;
	// 1 pins a serial, sequence-ordered decision stage).
	WithDecideWorkers = broker.WithDecideWorkers
	// WithObserver registers a per-delivery callback.
	WithObserver = broker.WithObserver
	// WithFaults plugs a fault injector into the delivery fabric.
	WithFaults = broker.WithFaults
	// WithReliability tunes the retry/backoff protocol.
	WithReliability = broker.WithReliability
	// WithTelemetry shares a metrics registry with the broker.
	WithTelemetry = broker.WithTelemetry
	// WithTracer records per-event lifecycle traces.
	WithTracer = broker.WithTracer
	// WithHealth attaches overload protection and the self-healing control
	// loop to a broker.
	WithHealth = broker.WithHealth
	// WithDecisionObserver registers a per-decision callback with priced
	// costs (runs on the decision workers; keep it fast, and pin
	// WithDecideWorkers(1) when it must see decisions in sequence order).
	WithDecisionObserver = broker.WithDecisionObserver
	// ErrBrokerClosed is returned by Publish after Close.
	ErrBrokerClosed = broker.ErrClosed
)

// Health: admission control, per-destination circuit breakers and the
// self-healing control loop (see the Failure handling lifecycle section of
// DESIGN.md).
type (
	// Health bundles the overload-protection subsystem for one broker.
	Health = health.Health
	// HealthConfig tunes admission, breakers and the control loop.
	HealthConfig = health.Config
	// AdmissionPolicy selects the overload response.
	AdmissionPolicy = health.Policy
	// BreakerSnapshot is a point-in-time view of the circuit breakers.
	BreakerSnapshot = health.TrackerSnapshot
)

// Overload policies.
const (
	// BlockPolicy is lossless backpressure: Publish waits for a slot.
	BlockPolicy = health.Block
	// RejectNewestPolicy fails fast with ErrOverloaded when saturated.
	RejectNewestPolicy = health.RejectNewest
	// ShedLowFanoutPolicy drops decided events below the mean fanout when
	// the pipeline congests.
	ShedLowFanoutPolicy = health.ShedLowFanout
)

// Health constructors and errors.
var (
	// NewHealth validates a config and builds the health subsystem.
	NewHealth = health.New
	// ParseAdmissionPolicy maps flag spellings to policies.
	ParseAdmissionPolicy = health.ParsePolicy
	// ErrOverloaded is returned by Publish under RejectNewest admission.
	ErrOverloaded = health.ErrOverloaded
)

// Telemetry: zero-dependency metrics, per-event tracing and exporters (see
// the Observability section of DESIGN.md).
type (
	// MetricsRegistry holds named scopes of counters, gauges and
	// histograms; snapshots are lock-free and monotone.
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is a point-in-time read of one scope.
	MetricsSnapshot = telemetry.ScopeSnapshot
	// Tracer samples publications deterministically and records their
	// lifecycle spans into a bounded ring.
	Tracer = telemetry.Tracer
	// TracerConfig sizes the ring and sets the sampling rate and seed.
	TracerConfig = telemetry.TracerConfig
)

// Telemetry constructors and exporters.
var (
	// NewMetricsRegistry creates an empty registry.
	NewMetricsRegistry = telemetry.NewRegistry
	// NewTracer builds a trace recorder.
	NewTracer = telemetry.NewTracer
	// WriteMetricsJSON dumps a registry snapshot as indented JSON.
	WriteMetricsJSON = telemetry.WriteJSON
	// WriteMetricsPrometheus dumps a snapshot in Prometheus text format.
	WriteMetricsPrometheus = telemetry.WritePrometheus
	// ServeTelemetry exposes /metrics, /trace and /debug/pprof/ over HTTP.
	ServeTelemetry = telemetry.Serve
)

// Durability: write-ahead journal, checkpointed snapshots and
// crash–restart recovery with exactly-once redelivery (see the Durability
// & recovery section of DESIGN.md).
type (
	// DurableOptions tunes the durable store's checkpoint cadence and arms
	// deterministic crash injection for chaos tests.
	DurableOptions = durable.Options
	// RecoveryStats summarises one crash–restart recovery: checkpoint
	// loaded, journals and records replayed, torn tails truncated,
	// stranded publishes redelivered, and the recovery duration.
	RecoveryStats = durable.RecoveryStats
	// CrashPlan schedules one deterministic crash against a durable store.
	CrashPlan = faults.CrashPlan
	// CrashPoint selects where a scheduled crash fires relative to a
	// durable-store operation.
	CrashPoint = faults.CrashPoint
	// CrashInjector arms a CrashPlan; one injector simulates exactly one
	// process death.
	CrashInjector = faults.CrashInjector
)

// Crash points (the classic write-ahead-log failure windows).
const (
	// CrashBeforeAppend dies before the journal record reaches the disk.
	CrashBeforeAppend = faults.CrashBeforeAppend
	// CrashAfterAppend dies after the record is durable but before the
	// append returns.
	CrashAfterAppend = faults.CrashAfterAppend
	// CrashTornAppend dies mid-write, leaving a torn frame for recovery to
	// CRC-detect and truncate.
	CrashTornAppend = faults.CrashTornAppend
	// CrashMidCheckpoint dies between writing the checkpoint temp file and
	// atomically installing it.
	CrashMidCheckpoint = faults.CrashMidCheckpoint
)

// Durability constructors, options and errors.
var (
	// OpenBroker opens (or creates) a durable broker: state persists in a
	// directory as a write-ahead journal plus checkpoints, and a restart
	// recovers subscriptions, dedup windows and undelivered publishes.
	OpenBroker = broker.Open
	// WithDurableOptions overrides the durable store's defaults on
	// OpenBroker.
	WithDurableOptions = broker.WithDurableOptions
	// NewCrashInjector arms a crash plan for WithDurableOptions.
	NewCrashInjector = faults.NewCrashInjector
	// ErrCrashed reports a simulated process crash; the durable broker
	// refuses further work until re-opened.
	ErrCrashed = faults.ErrCrashed
)

// Fault injection: deterministic drop/duplicate/delay/link-failure/crash
// schedules for chaos-testing the delivery fabric.
type (
	// FaultConfig parameterises a fault injector.
	FaultConfig = faults.Config
	// FaultInjector makes seeded, reproducible fault decisions.
	FaultInjector = faults.Injector
	// Crash takes one node down for a sequence-number window.
	Crash = faults.Crash
	// Flap periodically fails one link.
	Flap = faults.Flap
	// LinkOutage takes one link down for a sequence-number window.
	LinkOutage = faults.LinkOutage
	// EdgeKey canonically identifies an undirected network edge.
	EdgeKey = topology.EdgeKey
)

// Fault-injection constructors.
var (
	// NewFaultInjector validates a fault config and builds the injector.
	NewFaultInjector = faults.New
	// MakeEdgeKey canonicalises an undirected edge identity.
	MakeEdgeKey = topology.MakeEdgeKey
)

// Wire transport: the broker over TCP — a daemon Server speaking a
// compact length-prefixed, CRC-framed binary protocol, and a client Conn
// with credit-based end-to-end flow control that transparently reconnects
// and resumes its session, preserving exactly-once delivery across
// connection resets (see the Wire transport section of DESIGN.md).
type (
	// WireServer accepts wire-protocol connections and bridges them to a
	// Broker via its observer hook.
	WireServer = transport.Server
	// WireServerConfig tunes the server: batch size, session buffer and
	// resume timeout, TLS.
	WireServerConfig = transport.Config
	// WireClient is a reconnecting client connection with exactly-once
	// publish and delivery semantics.
	WireClient = transport.Conn
	// WireClientConfig tunes the client: credit window, reconnect backoff,
	// custom dialer (the fault-injection hook), TLS.
	WireClientConfig = transport.ClientConfig
	// WireDeliver is one delivery as received over the wire.
	WireDeliver = wire.Deliver
	// ConnFaultConfig schedules connection-level faults: mid-stream
	// resets, chunked partial writes, read/write stalls.
	ConnFaultConfig = faults.ConnConfig
	// ConnFaultInjector wraps net.Conns with a deterministic fault
	// schedule.
	ConnFaultInjector = faults.ConnInjector
)

// Wire-transport constructors and errors.
var (
	// NewWireServer builds a transport server; wire its Dispatch method as
	// the broker's observer.
	NewWireServer = transport.NewServer
	// DialWire connects a client to a WireServer.
	DialWire = transport.Dial
	// ErrWireServerClosed is Serve's return after a graceful Shutdown.
	ErrWireServerClosed = transport.ErrServerClosed
	// ErrWireConnClosed is returned by client operations after the
	// connection ends.
	ErrWireConnClosed = transport.ErrConnClosed
	// NewConnFaultInjector validates a conn-fault config and builds the
	// injector.
	NewConnFaultInjector = faults.NewConnInjector
)

// WireProtocolVersion is the frame-protocol version this build speaks;
// hellos carrying any other version are rejected.
const WireProtocolVersion = wire.Version

// Replication: warm-standby broker pairs. A ReplicaLeader ships every
// journal record to a ReplicaFollower over the wire framing and fsyncs on
// both sides before a publish is acknowledged; on leader death the
// follower promotes itself behind a monotonically increasing fencing
// epoch, preserving exactly-once delivery across the handover (see the
// Replicated broker pairs section of DESIGN.md).
type (
	// ReplicaLeader is a durable broker that streams its journal to a
	// warm-standby follower and gates publishes on the remote fsync.
	ReplicaLeader = replicate.Leader
	// ReplicaLeaderConfig tunes the leader: ack timeout, heartbeat
	// cadence, failure detector, fencing-epoch directory.
	ReplicaLeaderConfig = replicate.LeaderConfig
	// ReplicaLeaderStats counts shipped records, acks, solo drops and
	// session turnovers.
	ReplicaLeaderStats = replicate.LeaderStats
	// ReplicaFollower mirrors a leader's journal into its own directory
	// and can promote itself into a serving broker when the leader dies.
	ReplicaFollower = replicate.Follower
	// ReplicaFollowerConfig tunes the follower: leader address, data and
	// epoch directories, reconnect backoff, failure detector.
	ReplicaFollowerConfig = replicate.FollowerConfig
)

// Replication constructors and errors.
var (
	// OpenReplicaLeader opens a durable broker whose journal appends ship
	// to any connected follower; serve followers with its Serve or Accept.
	OpenReplicaLeader = replicate.OpenLeader
	// StartReplicaFollower connects a warm standby to a leader and keeps
	// its mirror in sync until Promote or Close.
	StartReplicaFollower = replicate.StartFollower
	// ErrReplicaFenced reports that a higher fencing epoch was observed:
	// another leader was promoted and this one must stand down.
	ErrReplicaFenced = replicate.ErrFenced
)

// Federation: the subscription space cut into N disjoint rectangle
// tiles, one shard each, behind one Router. The router registers a
// subscription on every tile its rectangle intersects, sends each
// publish to the one shard whose tile owns the event point, and merges
// the per-shard delivery streams exactly-once — absorbing the replays
// and retries of a replica failover (see the Federated broker shards
// section of DESIGN.md).
type (
	// FederationPartition is an ordered list of shard tiles covering Ω.
	FederationPartition = federate.Partition
	// FederationRouter owns the shards, the routing and the merge.
	FederationRouter = federate.Router
	// FederationConfig tunes a router: tiles, merged-delivery observer,
	// shard re-resolution hook, retry budget.
	FederationConfig = federate.Config
	// FederationStats counts publishes, decide attempts, retries,
	// re-resolutions and suppressed duplicate deliveries.
	FederationStats = federate.Stats
	// FederationRemote is a shard reached over the wire transport.
	FederationRemote = federate.Remote
	// BrokerShard is the decision-fabric surface every shard implements:
	// in-process brokers, replica leaders, wire-attached remotes.
	BrokerShard = broker.Shard
)

// Federation constructors and errors.
var (
	// DerivePartition splits a workload into power-of-two weighted tiles.
	DerivePartition = federate.Derive
	// TileWorld restricts a world to the subscriptions one tile serves.
	TileWorld = federate.TileWorld
	// NewFederationRouter validates a config and builds the router.
	NewFederationRouter = federate.NewRouter
	// AttachRemoteShard dials a wire server and attaches it as a shard.
	AttachRemoteShard = federate.AttachRemote
	// ErrFederationClosed is returned by operations after Router.Close.
	ErrFederationClosed = federate.ErrClosed
	// ErrFederationNoShard reports an event or subscription whose tiles
	// have no attached, resolvable shard.
	ErrFederationNoShard = federate.ErrNoShard
	// ErrFederationUnknownSub is Unsubscribe's report for an unknown ID.
	ErrFederationUnknownSub = federate.ErrUnknownSub
)

// Persistence: round-trippable text formats for topologies, subscription
// sets and event traces (bring-your-own-workload, archive-for-repro).
var (
	// WriteTopology and ReadTopology serialise networks.
	WriteTopology = topology.WriteText
	ReadTopology  = topology.ReadText
	// WriteTopologyDOT emits Graphviz DOT for visualisation.
	WriteTopologyDOT = topology.WriteDOT
	// WriteSubscriptions and ReadSubscriptions serialise interest sets.
	WriteSubscriptions = workload.WriteSubscriptions
	ReadSubscriptions  = workload.ReadSubscriptions
	// WriteEvents and ReadEvents serialise publication traces.
	WriteEvents = workload.WriteEvents
	ReadEvents  = workload.ReadEvents
)
