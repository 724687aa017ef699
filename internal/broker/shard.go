package broker

import (
	"repro/internal/workload"
)

// Shard is the contract one broker shard fulfils behind a federation
// router: admit publications into its decision plane (DecideSeq), add and
// remove subscriptions (Subscribe, Unsubscribe), and release itself
// (Close). The in-process Broker is the canonical implementation;
// replicate.Leader (a broker shipping its journal to a standby) and
// federate.Remote (a whole pubsub-server over the wire) are the others,
// so the routing tier above never cares which kind it is talking to.
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
	// Subscribe registers s and returns the shard-local slot it was
	// assigned.
	Subscribe(s workload.Subscription) (int, error)
	// Unsubscribe releases a slot returned by Subscribe.
	Unsubscribe(slot int) error
	// Close releases the shard, reporting any failure to persist final
	// state.
	Close() error
}

// Compile-time check: the broker is a Shard.
var _ Shard = (*Broker)(nil)

// DecideSeq implements Shard: PublishSeq under the federation contract's
// name.
func (b *Broker) DecideSeq(ev workload.Event) (int64, error) { return b.PublishSeq(ev) }
