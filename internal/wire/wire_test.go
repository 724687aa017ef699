package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/space"
	"repro/internal/workload"
)

func roundtrip(t *testing.T, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WriteFrame(payload); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := NewReader(&buf, 0).ReadFrame()
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return got
}

func TestFrameRoundtrip(t *testing.T) {
	payload := AppendPing(nil, 0xdeadbeef)
	got := roundtrip(t, payload)
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %x != %x", got, payload)
	}
	if n, err := DecodePing(got); err != nil || n != 0xdeadbeef {
		t.Fatalf("DecodePing = %x, %v", n, err)
	}
}

func TestFrameCoalescing(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	for i := 0; i < 5; i++ {
		if err := w.WriteFrame(AppendPing(nil, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("frames flushed before Flush: %d bytes", buf.Len())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, 0)
	for i := 0; i < 5; i++ {
		p, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n, _ := DecodePing(p); n != uint64(i) {
			t.Fatalf("frame %d: nonce %d", i, n)
		}
	}
	if _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	// Writer side: refuses to emit.
	w := NewWriter(io.Discard, 64)
	if err := w.WriteFrame(make([]byte, 65)); !errors.Is(err, ErrOversize) {
		t.Fatalf("writer accepted oversized frame: %v", err)
	}
	// Reader side: rejects from the length prefix alone, before reading
	// (or allocating) the payload.
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	r := NewReader(bytes.NewReader(hdr[:]), 64)
	if _, err := r.ReadFrame(); !errors.Is(err, ErrOversize) {
		t.Fatalf("reader accepted oversized length: %v", err)
	}
}

func TestTruncatedHeaderAndPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WriteFrame(AppendPing(nil, 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut at every possible point inside the frame: a mid-header or
	// mid-payload EOF must surface as ErrTruncated, never io.EOF (which
	// means a clean frame boundary).
	for cut := 1; cut < len(whole); cut++ {
		r := NewReader(bytes.NewReader(whole[:cut]), 0)
		if _, err := r.ReadFrame(); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: got %v, want ErrTruncated", cut, err)
		}
	}
	// Zero bytes is a clean boundary.
	if _, err := NewReader(bytes.NewReader(nil), 0).ReadFrame(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.WriteFrame(AppendPing(nil, 7)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload byte
	if _, err := NewReader(bytes.NewReader(raw), 0).ReadFrame(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted frame accepted: %v", err)
	}
}

func TestMessageRoundtrips(t *testing.T) {
	hello := Hello{Version: Version, Session: 42, LastDid: 17, Credits: 256}
	if got, err := DecodeHello(AppendHello(nil, hello)); err != nil || got != hello {
		t.Fatalf("hello: %+v, %v", got, err)
	}
	hack := HelloAck{Version: Version, Session: 9, Resumed: true}
	if got, err := DecodeHelloAck(AppendHelloAck(nil, hack)); err != nil || got != hack {
		t.Fatalf("helloAck: %+v, %v", got, err)
	}
	sub := Subscribe{ReqID: 3, Owner: 12, Rect: space.Rect{space.Span(1, 2), space.Full()}}
	gotSub, err := DecodeSubscribe(AppendSubscribe(nil, sub))
	if err != nil || gotSub.ReqID != sub.ReqID || gotSub.Owner != sub.Owner ||
		len(gotSub.Rect) != 2 || gotSub.Rect[0] != sub.Rect[0] || gotSub.Rect[1] != sub.Rect[1] {
		t.Fatalf("subscribe: %+v, %v", gotSub, err)
	}
	sd := Subscribed{ReqID: 3, Slot: 11, Err: "nope"}
	if got, err := DecodeSubscribed(AppendSubscribed(nil, sd)); err != nil || got != sd {
		t.Fatalf("subscribed: %+v, %v", got, err)
	}
	un := Unsubscribe{ReqID: 4, Slot: 11}
	if got, err := DecodeUnsubscribe(AppendUnsubscribe(nil, un)); err != nil || got != un {
		t.Fatalf("unsubscribe: %+v, %v", got, err)
	}
	ud := Unsubscribed{ReqID: 4, Err: ""}
	if got, err := DecodeUnsubscribed(AppendUnsubscribed(nil, ud)); err != nil || got != ud {
		t.Fatalf("unsubscribed: %+v, %v", got, err)
	}
	pub := Publish{PSeq: 99, Ev: workload.Event{Pub: 7, Point: space.Point{1.5, -2.5}}}
	gotPub, err := DecodePublish(AppendPublish(nil, pub))
	if err != nil || gotPub.PSeq != 99 || gotPub.Ev.Pub != 7 ||
		len(gotPub.Ev.Point) != 2 || gotPub.Ev.Point[0] != 1.5 || gotPub.Ev.Point[1] != -2.5 {
		t.Fatalf("publish: %+v, %v", gotPub, err)
	}
	pa := PubAck{PSeq: 99, Err: "overloaded"}
	if got, err := DecodePubAck(AppendPubAck(nil, pa)); err != nil || got != pa {
		t.Fatalf("pubAck: %+v, %v", got, err)
	}
	ack := Ack{Did: 1234, Credit: 32}
	if got, err := DecodeAck(AppendAck(nil, ack)); err != nil || got != ack {
		t.Fatalf("ack: %+v, %v", got, err)
	}
	if got, err := DecodeCredit(AppendCredit(nil, 64)); err != nil || got != 64 {
		t.Fatalf("credit: %d, %v", got, err)
	}
	if got, err := DecodePong(AppendPong(nil, 5)); err != nil || got != 5 {
		t.Fatalf("pong: %d, %v", got, err)
	}
	em := ErrorMsg{Code: CodeDraining, Msg: "draining"}
	if got, err := DecodeError(AppendError(nil, em)); err != nil || got != em {
		t.Fatalf("error: %+v, %v", got, err)
	}
	if MsgType(AppendDrain(nil)) != TypeDrain || MsgType(AppendGoodbye(nil)) != TypeGoodbye {
		t.Fatal("drain/goodbye types")
	}
}

func TestDeliverBatchRoundtrip(t *testing.T) {
	batch := []Deliver{
		{Did: 1, Seq: 10, Ev: workload.Event{Pub: 2, Point: space.Point{0.25}}, Method: 2, Group: 7, Interested: true},
		{Did: 2, Seq: 11, Ev: workload.Event{Pub: 3, Point: space.Point{0.5}}, Method: 0, Group: -1, Interested: false},
	}
	got, err := DecodeDeliverBatch(AppendDeliverBatch(nil, batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range got {
		if got[i].Did != batch[i].Did || got[i].Seq != batch[i].Seq ||
			got[i].Method != batch[i].Method || got[i].Group != batch[i].Group ||
			got[i].Interested != batch[i].Interested || got[i].Ev.Pub != batch[i].Ev.Pub {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], batch[i])
		}
	}
}

func TestDecodeRejectsWrongTypeAndTruncation(t *testing.T) {
	if _, err := DecodeHello(AppendPing(nil, 1)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("wrong type accepted: %v", err)
	}
	full := AppendSubscribe(nil, Subscribe{ReqID: 1, Owner: 2, Rect: space.FullRect(3)})
	for cut := 1; cut < len(full); cut++ {
		if _, err := DecodeSubscribe(full[:cut]); err == nil {
			t.Fatalf("truncated subscribe at %d accepted", cut)
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeAck(append(AppendAck(nil, Ack{Did: 1}), 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
	// An absurd rect dimension is rejected before allocation.
	huge := AppendSubscribe(nil, Subscribe{ReqID: 1, Owner: 2, Rect: space.FullRect(1)})
	// Patch the dim field (offset: 1 type + 8 reqID + 8 owner).
	huge[17] = 0xff
	huge[18] = 0xff
	if _, err := DecodeSubscribe(huge); err == nil {
		t.Fatal("oversized rect dim accepted")
	}
}
