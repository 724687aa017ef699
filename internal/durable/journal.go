// Package durable persists broker state: an append-only, CRC-framed,
// fsync-batched write-ahead journal of subscription churn, publish and
// delivery-ack records (one ack record per event, naming every node that
// admitted a copy), plus periodic checkpoints that serialize the
// engine's decision inputs and per-consumer dedup windows. A broker
// restarted over the same directory rebuilds its state from the newest
// checkpoint and the journal tail, redelivering the outstanding publishes
// so that events acknowledged before a crash are delivered exactly once
// (the restored dedup windows suppress the copies that already arrived).
//
// On-disk layout (all integers little-endian):
//
//	journal.NNNNNN.log   one per checkpoint epoch; 32-byte header
//	                     (magic, epoch, base-subscription hash, base count)
//	                     followed by frames [4B len][4B crc32c(payload)][payload]
//	                     whose first payload byte is the record kind:
//	                     1 subscribe, 2 unsubscribe, 3 publish, 5 acks
//	                     (seq + every admitting node); 4, a single ack,
//	                     is only read, from journals of older binaries
//	checkpoint.ckpt      newest checkpoint: magic, 8B body length,
//	                     4B crc32c(body), body — installed by atomic rename
//	checkpoint.tmp       in-progress checkpoint; ignored and removed at Open
//
// One Store writes both ends of a replicated pair: Open recovers a
// broker's directory, OpenMirror opens a standby's, which then applies
// the leader's shipped stream with Reset, AppendRaw, Rotate and
// InstallCheckpoint — the same append, rotation and checkpoint installer
// the leader ran.
//
// A checkpoint names the first journal epoch it does NOT cover; recovery
// loads the checkpoint and replays every journal with epoch ≥ that number
// in order. Replay is idempotent, so records that straddle a checkpoint
// (or are re-appended when a checkpoint carries forward in-flight
// publishes) apply once. A torn final frame — the classic mid-append
// crash — is detected by the length/CRC checks, truncated, and counted.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// castagnoli is the CRC-32C polynomial used for every frame and for the
// checkpoint body.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	journalMagic = "PSWAL1\x00\x00" // 8 bytes, starts every journal file
	ckptMagic    = "PSCKP1\x00\x00" // 8 bytes, starts the checkpoint file

	frameHeaderLen   = 8 // u32 payload length + u32 crc32c(payload)
	journalHeaderLen = 8 + 8 + 8 + 8
	maxPayloadLen    = 1 << 24 // sanity bound; a frame longer than this is corruption
)

// Record kinds (first payload byte).
const (
	kindSubscribe   byte = 1
	kindUnsubscribe byte = 2
	kindPublish     byte = 3
	// kindAck is one (node, seq) admission. Nothing writes it any more;
	// recovery still reads it so journals of older binaries replay.
	kindAck byte = 4
	// kindAcks is one event's admissions: seq, u32 count, count node ids.
	kindAcks byte = 5
)

// acksHeaderLen is a kindAcks payload's size before its node ids.
const acksHeaderLen = 1 + 8 + 4

// maxAckNodes caps the node ids in one kindAcks record, keeping its
// payload near 64 KiB: far below maxPayloadLen, and small enough that a
// replication frame (wire.DefaultMaxFrame, 1 MiB) always carries one.
// AppendAcks splits larger sets.
const maxAckNodes = 8192

// SubRecord is a durably-identified subscription. IDs are assigned once
// and never reused: the engine's base subscriptions own ids 0..BaseCount-1
// and churned subscriptions count up from there, decoupling durable
// identity from the engine's compacting slot numbers.
type SubRecord struct {
	ID    int64
	Owner topology.NodeID
	Rect  space.Rect
}

// PublishRecord is one journaled publication with its broker sequence
// number; recovery redelivers outstanding publishes under their original
// seq so restored dedup windows recognise them.
type PublishRecord struct {
	Seq int64
	Ev  workload.Event
}

// AckRecord marks one (consumer node, seq) delivery as admitted into the
// consumer's dedup window. Recovery expands each journaled ack record into
// one AckRecord per node.
type AckRecord struct {
	Node topology.NodeID
	Seq  int64
}

// WindowState is a checkpointed per-consumer dedup window: the seqs still
// inside the sliding window at capture time.
type WindowState struct {
	Node topology.NodeID
	Size int
	Max  int64
	Seqs []int64
}

// BaseInfo fingerprints the engine's initial subscription population. It
// is stamped into every journal header and checkpoint; Open refuses to
// recover state written against a different base.
type BaseInfo struct {
	Hash  uint64
	Count int64
}

// HashBase fingerprints a base subscription slice (FNV-1a over owners and
// rectangle endpoint bit patterns).
func HashBase(subs []workload.Subscription) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, s := range subs {
		mix(uint64(int64(s.Owner)))
		for _, iv := range s.Rect {
			mix(math.Float64bits(iv.Lo))
			mix(math.Float64bits(iv.Hi))
		}
	}
	return h
}

// record is the decoded form of one journal frame.
type record struct {
	kind  byte
	sub   SubRecord     // kindSubscribe
	unsub int64         // kindUnsubscribe
	pub   PublishRecord // kindPublish
	// kindAck (one node) and kindAcks: the admitting nodes of one seq.
	ackSeq   int64
	ackNodes []topology.NodeID
}

func encodeSubRecord(b []byte, r SubRecord) []byte {
	b = append(b, kindSubscribe)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.ID))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(r.Owner)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(r.Rect)))
	for _, iv := range r.Rect {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Lo))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(iv.Hi))
	}
	return b
}

func encodeUnsubRecord(b []byte, id int64) []byte {
	b = append(b, kindUnsubscribe)
	return binary.LittleEndian.AppendUint64(b, uint64(id))
}

func encodePublishRecord(b []byte, p PublishRecord) []byte {
	b = append(b, kindPublish)
	b = binary.LittleEndian.AppendUint64(b, uint64(p.Seq))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(p.Ev.Pub)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Ev.Point)))
	for _, x := range p.Ev.Point {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

// encodeAcksRecord encodes one event's admissions into a payload of
// exactly its length: the caller hands it on, so nothing reuses it.
func encodeAcksRecord(seq int64, nodes []topology.NodeID) []byte {
	b := make([]byte, 0, acksHeaderLen+8*len(nodes))
	b = append(b, kindAcks)
	b = binary.LittleEndian.AppendUint64(b, uint64(seq))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(nodes)))
	for _, n := range nodes {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(n)))
	}
	return b
}

// cursor is a bounds-checked little-endian reader over a payload.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) u8() byte {
	if c.bad || c.off+1 > len(c.b) {
		c.bad = true
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *cursor) u16() uint16 {
	if c.bad || c.off+2 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *cursor) u64() uint64 {
	if c.bad || c.off+8 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }
func (c *cursor) node() topology.NodeID {
	return topology.NodeID(c.i64())
}

// done reports a decoding error if the cursor overran or bytes remain.
func (c *cursor) done() error {
	if c.bad {
		return errors.New("durable: truncated payload")
	}
	if c.off != len(c.b) {
		return fmt.Errorf("durable: %d trailing payload bytes", len(c.b)-c.off)
	}
	return nil
}

func decodeRecord(payload []byte) (record, error) {
	var r record
	if len(payload) == 0 {
		return r, errors.New("durable: empty payload")
	}
	c := &cursor{b: payload}
	r.kind = c.u8()
	switch r.kind {
	case kindSubscribe:
		r.sub.ID = c.i64()
		r.sub.Owner = c.node()
		dim := int(c.u16())
		if dim > 1024 {
			return r, fmt.Errorf("durable: subscription dim %d out of range", dim)
		}
		r.sub.Rect = make(space.Rect, dim)
		for i := range r.sub.Rect {
			r.sub.Rect[i] = space.Interval{Lo: c.f64(), Hi: c.f64()}
		}
	case kindUnsubscribe:
		r.unsub = c.i64()
	case kindPublish:
		r.pub.Seq = c.i64()
		r.pub.Ev.Pub = c.node()
		dim := int(c.u16())
		if dim > 1024 {
			return r, fmt.Errorf("durable: event dim %d out of range", dim)
		}
		r.pub.Ev.Point = make(space.Point, dim)
		for i := range r.pub.Ev.Point {
			r.pub.Ev.Point[i] = c.f64()
		}
	case kindAck:
		r.ackNodes = []topology.NodeID{c.node()}
		r.ackSeq = c.i64()
	case kindAcks:
		r.ackSeq = c.i64()
		// A count the payload cannot fill marks the cursor bad and sizes
		// nothing.
		r.ackNodes = make([]topology.NodeID, c.count(8))
		for i := range r.ackNodes {
			r.ackNodes[i] = c.node()
		}
	default:
		return r, fmt.Errorf("durable: unknown record kind %d", r.kind)
	}
	if err := c.done(); err != nil {
		return r, err
	}
	return r, nil
}

// writeFrame writes the frame [4B len][4B crc32c(payload)][payload] to w,
// cut after keep payload bytes (a simulated torn write keeps half). The
// header is built in hdr, scratch the caller owns, so framing allocates
// nothing. A failed write leaves w's error sticky, so later flushes fail
// too.
func writeFrame(w *bufio.Writer, hdr *[frameHeaderLen]byte, payload []byte, keep int) error {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	w.Write(hdr[:])
	_, err := w.Write(payload[:keep])
	return err
}

func journalName(epoch int64) string { return fmt.Sprintf("journal.%06d.log", epoch) }

func encodeJournalHeader(epoch int64, base BaseInfo) []byte {
	b := make([]byte, 0, journalHeaderLen)
	b = append(b, journalMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(epoch))
	b = binary.LittleEndian.AppendUint64(b, base.Hash)
	b = binary.LittleEndian.AppendUint64(b, uint64(base.Count))
	return b
}

func decodeJournalHeader(b []byte) (epoch int64, base BaseInfo, err error) {
	if len(b) != journalHeaderLen || string(b[:8]) != journalMagic {
		return 0, BaseInfo{}, errors.New("durable: bad journal header")
	}
	epoch = int64(binary.LittleEndian.Uint64(b[8:]))
	base.Hash = binary.LittleEndian.Uint64(b[16:])
	base.Count = int64(binary.LittleEndian.Uint64(b[24:]))
	return epoch, base, nil
}
