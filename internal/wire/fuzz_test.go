package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/space"
	"repro/internal/workload"
)

// FuzzDecodeDeliverBatch feeds arbitrary payloads to the client's deliver
// decoder, fresh (nil scratch, as on a client's first frame) and into a
// reused scratch. Decoding never panics, both paths agree, and a batch
// that decodes re-encodes to exactly the bytes it came from, so the
// decoder accepts one encoding per batch.
func FuzzDecodeDeliverBatch(f *testing.F) {
	f.Add(AppendDeliverBatch(nil, []Deliver{
		{Did: 1, Node: 4, Seq: 10, Ev: workload.Event{Pub: 2, Point: space.Point{0.25, 0.75}}, Method: 2, Group: 7, Interested: true},
		{Did: 2, Node: 5, Seq: 11, Ev: workload.Event{Pub: 3}, Group: -1},
	}))
	f.Add(AppendDeliverBatch(nil, nil))
	f.Add([]byte{byte(TypeDeliver), 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ds, err := DecodeDeliverBatch(payload)
		scratch := make([]Deliver, 0, 4)
		ds2, err2 := DecodeDeliverBatchInto(payload, scratch)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("fresh and reused decodes disagree: %v vs %v", err, err2)
		}
		if err != nil {
			return
		}
		if got := AppendDeliverBatch(nil, ds); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded batch differs:\n got %x\nwant %x", got, payload)
		}
		if got := AppendDeliverBatch(nil, ds2); !bytes.Equal(got, payload) {
			t.Fatalf("re-encoded reused-scratch batch differs:\n got %x\nwant %x", got, payload)
		}
	})
}

// FuzzReadFrame reads an arbitrary byte stream as frames until the reader
// fails. It never panics, never returns a payload over its bound, and a
// header whose length exceeds the bound fails with ErrOversize.
func FuzzReadFrame(f *testing.F) {
	var ok bytes.Buffer
	w := NewWriter(&ok, 0)
	w.WriteFrame(AppendPing(nil, 7))
	w.WriteFrame(AppendDeliverBatch(nil, []Deliver{{Did: 1, Ev: workload.Event{Point: space.Point{0.5}}}}))
	w.Flush()
	f.Add(ok.Bytes(), uint16(64))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}, uint16(64))
	f.Add([]byte{9, 0, 0, 0}, uint16(0))
	f.Fuzz(func(t *testing.T, stream []byte, max uint16) {
		bound := int(max)
		if bound == 0 {
			bound = DefaultMaxFrame
		}
		r := NewReader(bytes.NewReader(stream), int(max))
		for off := 0; ; {
			payload, err := r.ReadFrame()
			if err != nil {
				if len(stream)-off >= frameHeaderLen &&
					int(binary.LittleEndian.Uint32(stream[off:])) > bound && !errors.Is(err, ErrOversize) {
					t.Fatalf("oversize header at %d read as %v, want ErrOversize", off, err)
				}
				return
			}
			if len(payload) > bound {
				t.Fatalf("payload of %d bytes over the %d bound", len(payload), bound)
			}
			off += frameHeaderLen + len(payload)
		}
	})
}

// roundTrip decodes payload and, when it decodes, checks that encoding
// the message again gives back exactly payload: a decoder that accepts
// one encoding per message.
func roundTrip[T any](t *testing.T, payload []byte, decode func([]byte) (T, error), encode func([]byte, T) []byte) {
	t.Helper()
	m, err := decode(payload)
	if err != nil {
		return
	}
	if got := encode(nil, m); !bytes.Equal(got, payload) {
		t.Fatalf("type %d re-encoded differs:\n got %x\nwant %x", MsgType(payload), got, payload)
	}
}

// FuzzDecodeClientFrame decodes arbitrary payloads the way the server's
// handshake and read loop do, by their type byte: every frame a client
// sends. Decoding never panics, and a frame that decodes re-encodes to
// the bytes it came from.
func FuzzDecodeClientFrame(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, Session: 3, LastDid: 9, Credits: 256}))
	f.Add(AppendPublish(nil, Publish{PSeq: 4, Ev: workload.Event{Pub: 2, Point: space.Point{0.25, 0.75}}}))
	f.Add(AppendSubscribe(nil, Subscribe{ReqID: 5, Owner: 7, Rect: space.Rect{{Lo: 0, Hi: 1}, {Lo: -2, Hi: 2}}}))
	f.Add(AppendUnsubscribe(nil, Unsubscribe{ReqID: 6, Slot: 11}))
	f.Add(AppendAck(nil, Ack{Did: 12, Credit: 64}))
	f.Add(AppendCredit(nil, 32))
	f.Add(AppendPing(nil, 99))
	f.Add([]byte{byte(TypeSubscribe), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0x03})
	f.Fuzz(func(t *testing.T, payload []byte) {
		switch MsgType(payload) {
		case TypeHello:
			roundTrip(t, payload, DecodeHello, AppendHello)
		case TypePublish:
			roundTrip(t, payload, DecodePublish, AppendPublish)
		case TypeSubscribe:
			roundTrip(t, payload, DecodeSubscribe, AppendSubscribe)
		case TypeUnsubscribe:
			roundTrip(t, payload, DecodeUnsubscribe, AppendUnsubscribe)
		case TypeAck:
			roundTrip(t, payload, DecodeAck, AppendAck)
		case TypeCredit:
			roundTrip(t, payload, DecodeCredit, AppendCredit)
		case TypePing:
			roundTrip(t, payload, DecodePing, AppendPing)
		}
	})
}

// FuzzDecodeReplFrame does the same for the replication frames a leader
// and a follower read off their socket.
func FuzzDecodeReplFrame(f *testing.F) {
	f.Add(AppendReplHello(nil, ReplHello{Version: Version, Term: 2}))
	f.Add(AppendCatchup(nil, Catchup{Term: 2, JournalEpoch: 3, LastIdx: 40, Ckpt: []byte("ckpt")}))
	f.Add(AppendReplicate(nil, Replicate{Term: 2, FirstIdx: 41, Recs: [][]byte{[]byte("a"), nil, []byte("bcd")}}))
	f.Add(AppendReplAck(nil, ReplAck{Term: 2, Idx: 43}))
	f.Add(AppendReplRotate(nil, ReplRotate{Term: 2, JournalEpoch: 4}))
	f.Add(AppendEpoch(nil, 5))
	f.Add([]byte{byte(TypeReplicate), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		switch MsgType(payload) {
		case TypeReplHello:
			roundTrip(t, payload, DecodeReplHello, AppendReplHello)
		case TypeCatchup:
			roundTrip(t, payload, DecodeCatchup, AppendCatchup)
		case TypeReplicate:
			roundTrip(t, payload, DecodeReplicate, AppendReplicate)
		case TypeReplAck:
			roundTrip(t, payload, DecodeReplAck, AppendReplAck)
		case TypeReplRotate:
			roundTrip(t, payload, DecodeReplRotate, AppendReplRotate)
		case TypeEpoch:
			roundTrip(t, payload, DecodeEpoch, AppendEpoch)
		}
	})
}

// TestDecodeDeliverBatchCapsReservation pins the fix FuzzDecodeDeliverBatch
// guards: the u16 count of a deliver frame is untrusted, so a fresh decode
// reserves only what the frame's remaining bytes can hold.
func TestDecodeDeliverBatchCapsReservation(t *testing.T) {
	ds, err := DecodeDeliverBatchInto([]byte{byte(TypeDeliver), 0xff, 0xff}, nil)
	if !errors.Is(err, ErrBadMessage) {
		t.Fatalf("a count with no deliveries behind it decoded: %v", err)
	}
	if cap(ds) != 0 {
		t.Fatalf("reserved %d deliveries for a 3-byte frame", cap(ds))
	}
}

// TestDecodeCountsCapReservation pins the same bound on the other counts
// a peer sends: a subscribe's rect dimension and a replicate batch's
// record count are refused, before anything is reserved, when the frame's
// bytes cannot hold them.
func TestDecodeCountsCapReservation(t *testing.T) {
	sub := AppendSubscribe(nil, Subscribe{ReqID: 1, Owner: 2, Rect: space.Rect{{Lo: 0, Hi: 1}}})
	sub[17], sub[18] = 0xff, 0x03 // dimension 1023 with one interval behind it
	if s, err := DecodeSubscribe(sub); !errors.Is(err, ErrBadMessage) || s.Rect != nil {
		t.Fatalf("subscribe claiming 1023 dimensions: rect of %d, %v", len(s.Rect), err)
	}
	rep := AppendReplicate(nil, Replicate{Term: 1, FirstIdx: 1, Recs: [][]byte{make([]byte, 100)}})
	rep[17] = 100 // 100 records with one behind them
	if m, err := DecodeReplicate(rep); !errors.Is(err, ErrBadMessage) || m.Recs != nil {
		t.Fatalf("replicate claiming 100 records: %d reserved, %v", cap(m.Recs), err)
	}
}
