// Package federate partitions the subscription space across N broker
// shards and routes the full pub-sub surface over them — the first
// multi-broker deployment shape on the road to the million-user north
// star (the subscription-subgrouping line of work: partitioned subgroups
// decouple routing paths from any single broker).
//
// The pieces:
//
//   - Partition: an ordered list of disjoint rectangles tiling the event
//     space, derived from the same grid + per-cell subscription-density
//     machinery the clustering engine uses (Derive splits the grid
//     k-d-style along axis boundaries, balancing subscriber weight).
//     Validate rejects overlapping tiles, so every event point has at
//     most one owner.
//
//   - Router: owns one broker.Shard per tile. Subscribe registers the
//     subscription on every shard whose tile its rectangle intersects
//     (a boundary-straddling subscription lives on several shards) and
//     returns a federation-wide id, so Unsubscribe routes back to
//     exactly the owning (shard, slot) pairs — shard-local slot ints
//     collide across shards and must never escape the router. Publish
//     sends the event to the one shard whose tile contains the point and
//     stamps it with a router-global sequence number. A straddler is
//     matched only by the shard that owns the event, so it sees each
//     event once.
//
//   - Exactly-once across failover: every shard delivery is translated
//     from the shard-local publication seq to the router-global seq
//     (shards report the seq they consumed via Shard.DecideSeq, even
//     when the publish then failed — a journaled-but-unacked publish
//     replays after a failover) and deduplicated per (subscriber node,
//     tile) in a one-bit-per-seq wire.Window, so a promoted standby's
//     replay and the router's retry of the same publish collapse to one
//     delivery. One owner per event makes each (node, tile) stream one
//     broker's, nearly in order, and a publish takes its global seq as it
//     enters the shard, which is what a residue window needs; a
//     half-accepted publish, which keeps its global seq through the
//     retries, is counted exactly per node instead.
//
//   - Fencing interaction: a shard backed by a replicate.Leader returns
//     replicate.ErrFenced once a standby has been promoted. The router
//     treats fenced (and crashed, closed) errors as retryable: it
//     re-resolves the shard — via the Resolve hook or an external Attach
//     of the promoted broker — and re-decides, relying on the seq
//     translation above to keep the retry from double delivering.
//
// Shards may be in-process (*broker.Broker, replicate.Leader) or remote:
// Remote adapts a transport client connection, so a shard can be a whole
// pubsub-server — including a replicated pair sharing its listener with
// followers via transport.Config.ReplHandler.
package federate

import (
	"errors"
	"sync/atomic"
)

// ErrClosed is returned by router operations after Close.
var ErrClosed = errors.New("federate: router closed")

// ErrNoShard is returned when a tile has no attached shard and
// resolution cannot produce one within the retry budget.
var ErrNoShard = errors.New("federate: no shard attached for tile")

// ErrUnknownSub is returned by Unsubscribe for an id the router never
// issued (or already released).
var ErrUnknownSub = errors.New("federate: unknown subscription id")

// Stats is a point-in-time snapshot of the router's counters.
type Stats struct {
	// Published counts router-level publications; Fanout counts decide
	// attempts, one per publish plus one per retry.
	Published int64
	Fanout    int64
	// Retries counts shard operations retried after a retryable shard
	// failure; Resolves counts shard re-resolutions that installed a new
	// shard (failover handovers).
	Retries  int64
	Resolves int64
	// Delivered counts deliveries forwarded to the observer after
	// dedup; Suppressed counts the duplicates dedup caught;
	// Unmapped counts deliveries whose shard-local seq had no recorded
	// translation (replays from before this router's lifetime).
	Delivered  int64
	Suppressed int64
	Unmapped   int64
	// CrossShardSubs counts subscriptions registered on more than one
	// shard (tile-boundary straddlers).
	CrossShardSubs int64
}

// counters is the router's internal mutable form of Stats.
type counters struct {
	published, fanout, retries, resolves atomic.Int64
	delivered, suppressed, unmapped      atomic.Int64
	crossShardSubs                       atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Published:      c.published.Load(),
		Fanout:         c.fanout.Load(),
		Retries:        c.retries.Load(),
		Resolves:       c.resolves.Load(),
		Delivered:      c.delivered.Load(),
		Suppressed:     c.suppressed.Load(),
		Unmapped:       c.unmapped.Load(),
		CrossShardSubs: c.crossShardSubs.Load(),
	}
}
