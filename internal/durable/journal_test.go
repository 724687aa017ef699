package durable

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// encodeLegacyAck encodes a kind-4 record — one (node, seq) admission — as
// older binaries wrote it; nothing in the tree writes one any more.
func encodeLegacyAck(n topology.NodeID, seq int64) []byte {
	b := []byte{kindAck}
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(n)))
	return binary.LittleEndian.AppendUint64(b, uint64(seq))
}

// encodeRecord re-encodes a decoded record with the encoder of its kind.
func encodeRecord(r record) []byte {
	switch r.kind {
	case kindSubscribe:
		return encodeSubRecord(nil, r.sub)
	case kindUnsubscribe:
		return encodeUnsubRecord(nil, r.unsub)
	case kindPublish:
		return encodePublishRecord(nil, r.pub)
	case kindAck:
		return encodeLegacyAck(r.ackNodes[0], r.ackSeq)
	case kindAcks:
		return encodeAcksRecord(r.ackSeq, r.ackNodes)
	}
	return nil
}

// TestAppendAcksSplitsLargeSets: an ack set larger than one record holds
// is journaled as several records of the same seq, and recovery returns
// every node in order.
func TestAppendAcksSplitsLargeSets(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 3, Count: 1}
	s, _ := mustOpen(t, dir, base, quick())
	nodes := make([]topology.NodeID, 2*maxAckNodes+3)
	for i := range nodes {
		nodes[i] = topology.NodeID(i)
	}
	ticket, err := s.AppendAcks(9, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if ticket != 3 {
		t.Errorf("ticket = %d, want 3 (the last of three records)", ticket)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, st := mustOpen(t, dir, base, quick())
	if st.Stats.RecordsReplayed != 3 {
		t.Errorf("RecordsReplayed = %d, want 3", st.Stats.RecordsReplayed)
	}
	if len(st.Acks) != len(nodes) {
		t.Fatalf("recovered %d acks, want %d", len(st.Acks), len(nodes))
	}
	for i, a := range st.Acks {
		if a != (AckRecord{Node: nodes[i], Seq: 9}) {
			t.Fatalf("ack %d = %+v, want node %d seq 9", i, a, nodes[i])
		}
	}
}

// FuzzDecodeRecord feeds arbitrary journal payloads to the record decoder:
// it must never panic, never size a node list the payload cannot fill
// (a corrupt kind-5 count is the bomb), and whatever it accepts must
// re-encode to the same bytes.
func FuzzDecodeRecord(f *testing.F) {
	rect := space.Rect{{Lo: 0.25, Hi: 0.5}, {Lo: math.Inf(-1), Hi: 1}}
	f.Add(encodeSubRecord(nil, SubRecord{ID: 4, Owner: 7, Rect: rect}))
	f.Add(encodeUnsubRecord(nil, 3))
	f.Add(encodePublishRecord(nil, PublishRecord{Seq: 11, Ev: workload.Event{Pub: 2, Point: space.Point{0.5, 0.75}}}))
	f.Add(encodeLegacyAck(5, 11))
	f.Add(encodeAcksRecord(11, []topology.NodeID{5, 6, 900}))
	bomb := binary.LittleEndian.AppendUint64([]byte{kindAcks}, 11)
	f.Add(binary.LittleEndian.AppendUint32(bomb, math.MaxUint32))
	f.Add([]byte{})
	f.Add([]byte{kindAcks})
	f.Add([]byte{99, 1, 2})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload)
		if err != nil {
			return
		}
		if cap(r.ackNodes) > len(payload)/8 {
			t.Fatalf("%d-byte payload sized a %d-node list", len(payload), cap(r.ackNodes))
		}
		if got := encodeRecord(r); !bytes.Equal(got, payload) {
			t.Fatalf("kind %d decoded from %x re-encodes to %x", r.kind, payload, got)
		}
	})
}
