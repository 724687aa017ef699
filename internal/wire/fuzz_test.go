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
