package broker

import (
	"repro/internal/workload"
)

// Mutation is one subscription-churn operation submitted to a Shard: a
// non-nil Subscribe adds the subscription; otherwise Slot names a live
// subscription to remove.
type Mutation struct {
	Subscribe *workload.Subscription
	Slot      int
}

// ShardInfo describes the decision state a shard currently serves — the
// cheap, lock-free view a federation control plane polls.
type ShardInfo struct {
	SnapshotVersion int64
	Groups          int
	Quarantined     int
	Published       int64
	Deliveries      int64
	Durable         bool
}

// Shard is the contract one broker shard fulfils in a replicated or
// federated deployment: admit publications into its decision plane
// (DecideSeq), mutate its subscription population (Apply), force its durable
// state to a checkpoint (Checkpoint), and report the decision state it
// serves (Snapshot). The in-process Broker is the canonical
// implementation; the replicate package adds two more — a replicating
// leader that fulfils the contract while shipping its journal, and a warm
// standby that rejects writes until promoted. Future federation shards
// (rectangle- or hash-partitioned) implement the same surface, so the
// routing tier above never cares which kind it is talking to.
type Shard interface {
	// DecideSeq admits one publication into the shard's decision plane. A
	// nil error means the publication is accepted (and, for durable
	// shards, journaled): it will be delivered to every matching
	// subscriber. It reports the shard-local publication sequence the
	// event consumed (deliveries carry it as Delivery.Seq), or -1 when the
	// event never entered the shard's history. A non-negative seq
	// alongside a non-nil error means the seq was consumed — possibly
	// journaled — before the failure; a federation router records it so
	// recovery replays of the half-accepted publish dedup against the
	// router's retry.
	DecideSeq(ev workload.Event) (int64, error)
	// Apply performs one subscription mutation and returns the slot the
	// shard assigned (meaningful for additions).
	Apply(m Mutation) (slot int, err error)
	// Checkpoint forces durable state to a checkpoint; a no-op for
	// non-durable shards.
	Checkpoint() error
	// Snapshot reports the decision state the shard currently serves.
	Snapshot() ShardInfo
	// Close releases the shard, reporting any failure to persist final
	// state.
	Close() error
}

// Compile-time check: the broker is a Shard.
var _ Shard = (*Broker)(nil)

// DecideSeq implements Shard: PublishSeq under the federation contract's
// name.
func (b *Broker) DecideSeq(ev workload.Event) (int64, error) { return b.PublishSeq(ev) }

// Apply implements Shard, dispatching to Subscribe or Unsubscribe.
func (b *Broker) Apply(m Mutation) (int, error) {
	if m.Subscribe != nil {
		return b.Subscribe(*m.Subscribe)
	}
	return m.Slot, b.Unsubscribe(m.Slot)
}

// Snapshot implements Shard with lock-free reads of the published
// decision snapshot and the stats counters.
func (b *Broker) Snapshot() ShardInfo {
	snap := b.snap.Load()
	return ShardInfo{
		SnapshotVersion: snap.Version(),
		Groups:          snap.NumGroups(),
		Quarantined:     snap.NumQuarantined(),
		Published:       b.ctr.published.Value(),
		Deliveries:      b.ctr.deliveries.Value(),
		Durable:         b.dur != nil,
	}
}
