package federate

import (
	"fmt"
	"strings"

	"repro/internal/broker"
	"repro/internal/multicast"
	"repro/internal/replicate"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Remote adapts a transport client connection to broker.Shard, so a
// federation tile can be served by a whole pubsub-server — including a
// replicated pair sharing the listener with its follower via the
// transport's ReplHandler hook. A pump goroutine drains the server's
// delivery stream into the router's merge (Feed), relying on the wire
// v2 Deliver.Node attribution and PubAck.Seq for the seq translation.
type Remote struct {
	conn   *transport.Conn
	router *Router
	idx    int
	done   chan struct{}
}

// AttachRemote dials cfg, attaches the resulting remote shard as tile
// idx of r, and starts the delivery pump. The connection's Subs list
// should normally be empty — the router registers subscriptions shard
// by shard after partitioning them.
func AttachRemote(r *Router, idx int, cfg transport.ClientConfig) (*Remote, error) {
	if idx < 0 || idx >= r.NumShards() {
		return nil, fmt.Errorf("federate: shard index %d out of range [0,%d)", idx, r.NumShards())
	}
	conn, err := transport.Dial(cfg)
	if err != nil {
		return nil, err
	}
	m := &Remote{conn: conn, router: r, idx: idx, done: make(chan struct{})}
	go m.pump()
	if err := r.Attach(idx, m); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// pump forwards the server's deliveries into the router merge until the
// connection closes.
func (m *Remote) pump() {
	defer close(m.done)
	for {
		d, ok := m.conn.Recv()
		if !ok {
			return
		}
		m.router.Feed(m.idx, d.Node, broker.Delivery{
			Event:      d.Ev,
			Seq:        d.Seq,
			Method:     multicast.Method(d.Method),
			Group:      int(d.Group),
			Interested: d.Interested,
		})
	}
}

// classify rewraps the flattened error strings a server ack carries so
// the router's Retryable check sees the typed sentinel again.
func classify(err error) error {
	if err == nil {
		return nil
	}
	msg := err.Error()
	switch {
	case strings.Contains(msg, "fenced"):
		return fmt.Errorf("%w (remote: %s)", replicate.ErrFenced, msg)
	case strings.Contains(msg, "not the leader"):
		return fmt.Errorf("%w (remote: %s)", replicate.ErrNotLeader, msg)
	}
	return err
}

// DecideSeq publishes ev and reports the remote broker's publication
// seq (the wire ack carries it since protocol v2).
func (m *Remote) DecideSeq(ev workload.Event) (int64, error) {
	seq, err := m.conn.PublishSeq(ev)
	return seq, classify(err)
}

// Apply routes a subscribe/unsubscribe mutation over the wire.
func (m *Remote) Apply(mu broker.Mutation) (int, error) {
	if mu.Subscribe != nil {
		slot, err := m.conn.Subscribe(mu.Subscribe.Owner, mu.Subscribe.Rect)
		return int(slot), classify(err)
	}
	return mu.Slot, classify(m.conn.Unsubscribe(int64(mu.Slot)))
}

// Checkpoint is a no-op: the remote server owns its durability cadence.
func (m *Remote) Checkpoint() error { return nil }

// Snapshot reports no local occupancy; the remote server owns the real
// numbers.
func (m *Remote) Snapshot() broker.ShardInfo { return broker.ShardInfo{} }

// Close tears down the connection and waits for the pump to drain.
func (m *Remote) Close() error {
	err := m.conn.Close()
	<-m.done
	return err
}
