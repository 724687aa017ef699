// Package replicate turns a durable broker into a replicated pair:
// a leader that ships its journal record stream over the wire protocol
// and a warm-standby follower that mirrors the stream into an identical
// on-disk layout, ready to be promoted by ordinary crash-restart
// recovery. Both ends write their directory with durable.Store: the
// follower's is a mirror (durable.OpenMirror) that applies the stream
// with the append, rotation and checkpoint installer the leader ran.
//
// The protocol is deliberately simple. Every (re)connect is a full
// resync: the leader captures a consistent snapshot of its on-disk state
// (checkpoint file + flushed journal tail), ships it, then streams live
// records. There is no incremental resume — journal replay is idempotent
// at both ends, so the duplicated suffix where catch-up overlaps the live
// stream is harmless, and the protocol needs no per-session cursors that
// could drift.
//
// Correctness across failover rests on two barriers wired through
// durable.Tap:
//
//   - a Publish is only acknowledged once its record is fsynced on BOTH
//     sides (Store.syncTo → Tap.Barrier), and
//   - a delivery is only observable once its suppressing ack record —
//     one per event, naming every node that admitted a copy — exists on
//     both sides (Store.AppendAcks → Store.AckBarrier → Tap.Barrier),
//
// so a promoted follower neither loses acknowledged publishes nor
// redelivers observed copies. If the follower stops acknowledging within
// AckTimeout the leader declares it dead and continues solo (availability
// over redundancy for a two-node pair; a later reconnect resyncs from
// disk).
//
// Split-brain is handled by fencing, not prevented by quorum (a pair has
// none): promotion durably persists term+1 before the new leader serves,
// and every frame carries the sender's term. A partitioned ex-leader
// learns the higher term from the first frame it exchanges with anyone
// newer, persists it, and refuses further writes with ErrFenced.
package replicate

import (
	"errors"
	"time"

	"repro/internal/health"
	"repro/internal/topology"
	"repro/internal/wire"
)

// ErrFenced is returned by a leader that has observed a higher fencing
// epoch: another node has been promoted, and every local write must be
// refused to keep the promoted history authoritative.
var ErrFenced = errors.New("replicate: fenced by a higher epoch (another leader was promoted)")

// peerNode is the sentinel topology.NodeID both sides use to track the
// remote peer in their health.Tracker (real node ids are ≥ 0).
const peerNode = topology.NodeID(-1)

const (
	defaultAckTimeout = time.Second
	defaultHeartbeat  = 100 * time.Millisecond
	defaultReconnect  = 25 * time.Millisecond
	// shipBatch bounds records per Replicate frame; shipBytes bounds the
	// frame payload so it stays under wire.DefaultMaxFrame with headroom.
	shipBatch = 256
	shipBytes = 256 << 10
)

func defaultMaxFrame(n int) int {
	if n <= 0 {
		return wire.DefaultMaxFrame
	}
	return n
}

func newTracker(cfg health.Config) *health.Tracker {
	h, err := health.New(cfg)
	if err != nil {
		// Zero config is valid; only hand-tuned configs can fail, and those
		// are programmer error.
		panic("replicate: bad health config: " + err.Error())
	}
	return h.Tracker
}
