package wire

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Type is a frame's message type, the first payload byte.
type Type byte

// Frame types.
const (
	TypeHello        Type = 1  // client → server: version + session handshake
	TypeHelloAck     Type = 2  // server → client: handshake accepted
	TypeSubscribe    Type = 3  // client → server: register an interest rectangle
	TypeSubscribed   Type = 4  // server → client: subscribe reply (slot or error)
	TypeUnsubscribe  Type = 5  // client → server: drop a subscription by slot
	TypeUnsubscribed Type = 6  // server → client: unsubscribe reply
	TypePublish      Type = 7  // client → server: one client-sequenced event
	TypePubAck       Type = 8  // server → client: publish reply (exactly-once ack)
	TypeDeliver      Type = 9  // server → client: a batch of deliveries
	TypeAck          Type = 10 // client → server: cumulative delivery ack + credits
	TypeCredit       Type = 11 // client → server: credit grant alone
	TypePing         Type = 12 // either direction: liveness probe
	TypePong         Type = 13 // reply to ping
	TypeDrain        Type = 14 // server → client: draining, publishes now refused
	TypeGoodbye      Type = 15 // either direction: orderly session end
	TypeError        Type = 16 // terminal protocol error, then close
)

// Error codes carried by TypeError frames.
const (
	CodeVersion  byte = 1 // hello version not spoken by the server
	CodeBadFrame byte = 2 // malformed or out-of-protocol frame
	CodeDraining byte = 3 // server is draining; reconnect elsewhere/later
	CodeSession  byte = 4 // resume token unknown or expired
	CodeInternal byte = 5 // unexpected server-side failure
)

// ErrBadMessage reports a structurally invalid payload for its type.
var ErrBadMessage = errors.New("wire: malformed message")

// MsgType returns a payload's frame type (0 for an empty payload).
func MsgType(payload []byte) Type {
	if len(payload) == 0 {
		return 0
	}
	return Type(payload[0])
}

// Hello opens a connection. Session 0 asks for a fresh session; a
// non-zero Session resumes one, with LastDid the highest delivery id the
// client has received (the server re-sends everything after it). Credits
// is the client's initial delivery window: the server never has more than
// Credits unacknowledged deliveries outstanding.
type Hello struct {
	Version uint16
	Session uint64
	LastDid int64
	Credits uint32
}

// HelloAck accepts a hello. Resumed reports whether the server restored
// an existing session (false ⇒ Session names a fresh one).
type HelloAck struct {
	Version uint16
	Session uint64
	Resumed bool
}

// Subscribed is the subscribe reply: the broker slot granted, or an
// error.
type Subscribed struct {
	ReqID int64
	Slot  int64
	Err   string
}

// Subscribe registers one interest rectangle owned by a node.
type Subscribe struct {
	ReqID int64
	Owner topology.NodeID
	Rect  space.Rect
}

// Unsubscribe drops a subscription by its broker slot.
type Unsubscribe struct {
	ReqID int64
	Slot  int64
}

// Unsubscribed is the unsubscribe reply.
type Unsubscribed struct {
	ReqID int64
	Err   string
}

// Publish carries one event under the client's publish sequence number.
// The server dedups PSeq per session (bounded window), so a publish
// retransmitted after a reconnect enters the broker exactly once.
type Publish struct {
	PSeq int64
	Ev   workload.Event
}

// PubAck acknowledges a publish; a non-empty Err reports rejection
// (overload, draining, closed). Seq is the broker publication sequence
// the event consumed, -1 when it never entered the broker's history —
// deliveries of the event carry the same seq, which is how a federation
// router correlates a remote shard's deliveries with its own fan-out.
type PubAck struct {
	PSeq int64
	Seq  int64
	Err  string
}

// Deliver is one delivery inside a TypeDeliver batch. Did is the
// per-session delivery id (contiguous, assigned at enqueue — the resume
// watermark); Seq is the broker's publication sequence number; Node is
// the subscriber node the delivery is addressed to (a session subscribed
// for several owners needs the attribution).
type Deliver struct {
	Did        int64
	Node       topology.NodeID
	Seq        int64
	Ev         workload.Event
	Method     byte
	Group      int32
	Interested bool
}

// Ack cumulatively acknowledges deliveries through Did and returns Credit
// delivery credits to the server.
type Ack struct {
	Did    int64
	Credit uint32
}

// ErrorMsg is a terminal protocol error.
type ErrorMsg struct {
	Code byte
	Msg  string
}

// ---- encoding ----------------------------------------------------------

func appendString(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = le16(b, uint16(len(s)))
	return append(b, s...)
}

func le16(b []byte, v uint16) []byte   { return append(b, byte(v), byte(v>>8)) }
func le32(b []byte, v uint32) []byte   { return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func le64(b []byte, v uint64) []byte   { return le32(le32(b, uint32(v)), uint32(v>>32)) }
func lei64(b []byte, v int64) []byte   { return le64(b, uint64(v)) }
func lef64(b []byte, v float64) []byte { return le64(b, math.Float64bits(v)) }

func appendEvent(b []byte, ev workload.Event) []byte {
	b = lei64(b, int64(ev.Pub))
	b = le16(b, uint16(len(ev.Point)))
	for _, x := range ev.Point {
		b = lef64(b, x)
	}
	return b
}

// AppendHello encodes a hello frame payload.
func AppendHello(b []byte, h Hello) []byte {
	b = append(b, byte(TypeHello))
	b = le16(b, h.Version)
	b = le64(b, h.Session)
	b = lei64(b, h.LastDid)
	return le32(b, h.Credits)
}

// AppendHelloAck encodes a helloAck frame payload.
func AppendHelloAck(b []byte, h HelloAck) []byte {
	b = append(b, byte(TypeHelloAck))
	b = le16(b, h.Version)
	b = le64(b, h.Session)
	if h.Resumed {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendSubscribe encodes a subscribe frame payload.
func AppendSubscribe(b []byte, s Subscribe) []byte {
	b = append(b, byte(TypeSubscribe))
	b = lei64(b, s.ReqID)
	b = lei64(b, int64(s.Owner))
	b = le16(b, uint16(len(s.Rect)))
	for _, iv := range s.Rect {
		b = lef64(b, iv.Lo)
		b = lef64(b, iv.Hi)
	}
	return b
}

// AppendSubscribed encodes a subscribe reply payload.
func AppendSubscribed(b []byte, s Subscribed) []byte {
	b = append(b, byte(TypeSubscribed))
	b = lei64(b, s.ReqID)
	b = lei64(b, s.Slot)
	return appendString(b, s.Err)
}

// AppendUnsubscribe encodes an unsubscribe frame payload.
func AppendUnsubscribe(b []byte, u Unsubscribe) []byte {
	b = append(b, byte(TypeUnsubscribe))
	b = lei64(b, u.ReqID)
	return lei64(b, u.Slot)
}

// AppendUnsubscribed encodes an unsubscribe reply payload.
func AppendUnsubscribed(b []byte, u Unsubscribed) []byte {
	b = append(b, byte(TypeUnsubscribed))
	b = lei64(b, u.ReqID)
	return appendString(b, u.Err)
}

// AppendPublish encodes a publish frame payload.
func AppendPublish(b []byte, p Publish) []byte {
	b = append(b, byte(TypePublish))
	b = lei64(b, p.PSeq)
	return appendEvent(b, p.Ev)
}

// AppendPubAck encodes a publish reply payload.
func AppendPubAck(b []byte, p PubAck) []byte {
	b = append(b, byte(TypePubAck))
	b = lei64(b, p.PSeq)
	b = lei64(b, p.Seq)
	return appendString(b, p.Err)
}

// AppendDeliverBatch encodes a batch of deliveries that shared a flush
// window into one frame payload.
func AppendDeliverBatch(b []byte, ds []Deliver) []byte {
	b = append(b, byte(TypeDeliver))
	b = le16(b, uint16(len(ds)))
	for _, d := range ds {
		b = lei64(b, d.Did)
		b = lei64(b, int64(d.Node))
		b = lei64(b, d.Seq)
		b = appendEvent(b, d.Ev)
		b = append(b, d.Method)
		b = le32(b, uint32(d.Group))
		if d.Interested {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// AppendAck encodes a cumulative ack + credit grant payload.
func AppendAck(b []byte, a Ack) []byte {
	b = append(b, byte(TypeAck))
	b = lei64(b, a.Did)
	return le32(b, a.Credit)
}

// AppendCredit encodes a bare credit grant payload.
func AppendCredit(b []byte, n uint32) []byte {
	b = append(b, byte(TypeCredit))
	return le32(b, n)
}

// AppendPing encodes a ping payload.
func AppendPing(b []byte, nonce uint64) []byte {
	return le64(append(b, byte(TypePing)), nonce)
}

// AppendPong encodes a pong payload.
func AppendPong(b []byte, nonce uint64) []byte {
	return le64(append(b, byte(TypePong)), nonce)
}

// AppendDrain encodes a drain notification payload.
func AppendDrain(b []byte) []byte { return append(b, byte(TypeDrain)) }

// AppendGoodbye encodes an orderly-close payload.
func AppendGoodbye(b []byte) []byte { return append(b, byte(TypeGoodbye)) }

// AppendError encodes a terminal error payload.
func AppendError(b []byte, e ErrorMsg) []byte {
	b = append(b, byte(TypeError), e.Code)
	return appendString(b, e.Msg)
}

// ---- decoding ----------------------------------------------------------

// cursor is a bounds-checked little-endian reader (the durable journal's
// decoding discipline).
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
	v := uint16(c.b[c.off]) | uint16(c.b[c.off+1])<<8
	c.off += 2
	return v
}

func (c *cursor) u32() uint32 {
	if c.bad || c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := uint32(c.b[c.off]) | uint32(c.b[c.off+1])<<8 |
		uint32(c.b[c.off+2])<<16 | uint32(c.b[c.off+3])<<24
	c.off += 4
	return v
}

func (c *cursor) u64() uint64 {
	lo := uint64(c.u32())
	return lo | uint64(c.u32())<<32
}

// flag decodes a boolean byte. Anything but 0 or 1 is malformed, so a
// message has exactly one encoding.
func (c *cursor) flag() bool {
	v := c.u8()
	if v > 1 {
		c.bad = true
	}
	return v == 1
}

func (c *cursor) i64() int64   { return int64(c.u64()) }
func (c *cursor) f64() float64 { return math.Float64frombits(c.u64()) }

func (c *cursor) str() string {
	n := int(c.u16())
	if c.bad || c.off+n > len(c.b) {
		c.bad = true
		return ""
	}
	v := string(c.b[c.off : c.off+n])
	c.off += n
	return v
}

func (c *cursor) event() workload.Event {
	var ev workload.Event
	ev.Pub = topology.NodeID(c.i64())
	dim := int(c.u16())
	if c.bad || dim > 1024 || c.off+8*dim > len(c.b) {
		c.bad = true
		return ev
	}
	ev.Point = make(space.Point, dim)
	for i := range ev.Point {
		ev.Point[i] = c.f64()
	}
	return ev
}

// done reports a decoding error if the cursor overran or bytes remain.
func (c *cursor) done() error {
	if c.bad {
		return fmt.Errorf("%w: truncated payload", ErrBadMessage)
	}
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(c.b)-c.off)
	}
	return nil
}

// open validates the frame type and positions a cursor after the type
// byte. It returns the cursor by value — callers keep it on the stack, so
// decoding allocates only for the message's own variable-length fields
// (strings, points), never for the decoding machinery itself.
func open(payload []byte, want Type) (cursor, error) {
	if MsgType(payload) != want {
		return cursor{}, fmt.Errorf("%w: type %d, want %d", ErrBadMessage, MsgType(payload), want)
	}
	return cursor{b: payload, off: 1}, nil
}

// DecodeHello decodes a hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	var h Hello
	c, err := open(payload, TypeHello)
	if err != nil {
		return h, err
	}
	h.Version = c.u16()
	h.Session = c.u64()
	h.LastDid = c.i64()
	h.Credits = c.u32()
	return h, c.done()
}

// DecodeHelloAck decodes a helloAck payload.
func DecodeHelloAck(payload []byte) (HelloAck, error) {
	var h HelloAck
	c, err := open(payload, TypeHelloAck)
	if err != nil {
		return h, err
	}
	h.Version = c.u16()
	h.Session = c.u64()
	h.Resumed = c.flag()
	return h, c.done()
}

// DecodeSubscribe decodes a subscribe payload.
func DecodeSubscribe(payload []byte) (Subscribe, error) {
	var s Subscribe
	c, err := open(payload, TypeSubscribe)
	if err != nil {
		return s, err
	}
	s.ReqID = c.i64()
	s.Owner = topology.NodeID(c.i64())
	dim := int(c.u16())
	if dim > 1024 || c.off+16*dim > len(c.b) {
		// Checked before the rect is reserved: the dimension is the
		// peer's word.
		return s, fmt.Errorf("%w: rect dim %d", ErrBadMessage, dim)
	}
	s.Rect = make(space.Rect, dim)
	for i := range s.Rect {
		s.Rect[i] = space.Interval{Lo: c.f64(), Hi: c.f64()}
	}
	return s, c.done()
}

// DecodeSubscribed decodes a subscribe reply payload.
func DecodeSubscribed(payload []byte) (Subscribed, error) {
	var s Subscribed
	c, err := open(payload, TypeSubscribed)
	if err != nil {
		return s, err
	}
	s.ReqID = c.i64()
	s.Slot = c.i64()
	s.Err = c.str()
	return s, c.done()
}

// DecodeUnsubscribe decodes an unsubscribe payload.
func DecodeUnsubscribe(payload []byte) (Unsubscribe, error) {
	var u Unsubscribe
	c, err := open(payload, TypeUnsubscribe)
	if err != nil {
		return u, err
	}
	u.ReqID = c.i64()
	u.Slot = c.i64()
	return u, c.done()
}

// DecodeUnsubscribed decodes an unsubscribe reply payload.
func DecodeUnsubscribed(payload []byte) (Unsubscribed, error) {
	var u Unsubscribed
	c, err := open(payload, TypeUnsubscribed)
	if err != nil {
		return u, err
	}
	u.ReqID = c.i64()
	u.Err = c.str()
	return u, c.done()
}

// DecodePublish decodes a publish payload.
func DecodePublish(payload []byte) (Publish, error) {
	var p Publish
	c, err := open(payload, TypePublish)
	if err != nil {
		return p, err
	}
	p.PSeq = c.i64()
	p.Ev = c.event()
	return p, c.done()
}

// DecodePubAck decodes a publish reply payload.
func DecodePubAck(payload []byte) (PubAck, error) {
	var p PubAck
	c, err := open(payload, TypePubAck)
	if err != nil {
		return p, err
	}
	p.PSeq = c.i64()
	p.Seq = c.i64()
	p.Err = c.str()
	return p, c.done()
}

// DecodeDeliverBatch decodes a deliver batch payload into a fresh slice.
func DecodeDeliverBatch(payload []byte) ([]Deliver, error) {
	return DecodeDeliverBatchInto(payload, nil)
}

// minDeliverLen is the shortest encoded delivery: did, node and seq (8 B
// each), the event's publisher (8) and dimension (2) with no coordinates,
// method (1), group (4) and interested (1).
const minDeliverLen = 40

// DecodeDeliverBatchInto decodes a deliver batch payload, appending to ds
// (usually a batch scratch sliced to [:0]) so a read loop reuses one
// backing array across frames. The decoded deliveries share nothing with
// the payload: every variable-length field is copied out, so the payload
// may be invalidated (the frame reader reuses its buffer) as soon as this
// returns. Each Deliver's Ev.Point is freshly allocated and safe for the
// consumer to retain even after ds is reused.
func DecodeDeliverBatchInto(payload []byte, ds []Deliver) ([]Deliver, error) {
	c, err := open(payload, TypeDeliver)
	if err != nil {
		return nil, err
	}
	n := int(c.u16())
	if ds == nil {
		// The count is the peer's word; reserve no more than the bytes
		// left can hold, or a 3-byte frame claiming 65 535 deliveries
		// would reserve megabytes.
		ds = make([]Deliver, 0, min(n, (len(c.b)-c.off)/minDeliverLen))
	}
	for i := 0; i < n; i++ {
		var d Deliver
		d.Did = c.i64()
		d.Node = topology.NodeID(c.i64())
		d.Seq = c.i64()
		d.Ev = c.event()
		d.Method = c.u8()
		d.Group = int32(c.u32())
		d.Interested = c.flag()
		if c.bad {
			break
		}
		ds = append(ds, d)
	}
	return ds, c.done()
}

// DecodeAck decodes a cumulative ack payload.
func DecodeAck(payload []byte) (Ack, error) {
	var a Ack
	c, err := open(payload, TypeAck)
	if err != nil {
		return a, err
	}
	a.Did = c.i64()
	a.Credit = c.u32()
	return a, c.done()
}

// DecodeCredit decodes a bare credit grant payload.
func DecodeCredit(payload []byte) (uint32, error) {
	c, err := open(payload, TypeCredit)
	if err != nil {
		return 0, err
	}
	n := c.u32()
	return n, c.done()
}

// DecodePing decodes a ping payload, returning its nonce.
func DecodePing(payload []byte) (uint64, error) {
	c, err := open(payload, TypePing)
	if err != nil {
		return 0, err
	}
	n := c.u64()
	return n, c.done()
}

// DecodePong decodes a pong payload, returning its nonce.
func DecodePong(payload []byte) (uint64, error) {
	c, err := open(payload, TypePong)
	if err != nil {
		return 0, err
	}
	n := c.u64()
	return n, c.done()
}

// DecodeError decodes a terminal error payload.
func DecodeError(payload []byte) (ErrorMsg, error) {
	var e ErrorMsg
	c, err := open(payload, TypeError)
	if err != nil {
		return e, err
	}
	e.Code = c.u8()
	e.Msg = c.str()
	return e, c.done()
}
