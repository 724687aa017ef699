package wire

// Replication frame types (leader–follower journal shipping; see the
// Replication section of DESIGN.md). A follower opens its connection with
// a ReplHello instead of a client Hello; the transport server hands such
// sessions to the replication layer and the ordinary client state machine
// never sees them.
const (
	TypeReplHello  Type = 17 // follower → leader: replication handshake
	TypeCatchup    Type = 18 // leader → follower: full resync preamble
	TypeReplicate  Type = 19 // leader → follower: batch of raw journal records
	TypeReplAck    Type = 20 // follower → leader: applied + fsynced through Idx
	TypeReplRotate Type = 21 // leader → follower: journal rotation / checkpoint install
	TypeEpoch      Type = 22 // either direction: fencing — my epoch is Term, yours is stale
)

// ReplHello opens a replication session. The follower announces the
// highest fencing epoch it has persisted; a leader whose own epoch is
// lower has been superseded and must fence itself instead of serving.
type ReplHello struct {
	Version uint16
	Term    int64
}

// Catchup is the leader's reply to a ReplHello: the follower wipes its
// local state, installs Ckpt (the leader's current checkpoint file; empty
// when none exists), opens a journal at JournalEpoch, and applies the
// record stream that follows. LastIdx is the ship index of the final
// record in the catch-up portion — acking it tells the leader the
// follower is caught up through the snapshot point. Term is the leader's
// fencing epoch, which the follower adopts (and persists) when higher
// than its own.
type Catchup struct {
	Term         int64
	JournalEpoch int64
	LastIdx      int64
	Ckpt         []byte
}

// Replicate carries a batch of raw journal record payloads, exactly as
// framed into the leader's journal, with contiguous ship indices starting
// at FirstIdx. The wire layer does not interpret the payloads.
type Replicate struct {
	Term     int64
	FirstIdx int64
	Recs     [][]byte
}

// ReplAck acknowledges that every shipped record with index ≤ Idx is
// applied and fsynced on the follower — the leader's replication barrier
// releases on it.
type ReplAck struct {
	Term int64
	Idx  int64
}

// ReplRotate mirrors a leader checkpoint at the follower: with an empty
// Ckpt it rotates the follower's journal to JournalEpoch (the leader's
// BeginCheckpoint); with Ckpt set it installs the encoded checkpoint for
// JournalEpoch and prunes older journals (the leader's CommitCheckpoint).
type ReplRotate struct {
	Term         int64
	JournalEpoch int64
	Ckpt         []byte
}

// AppendReplHello encodes a replication handshake payload.
func AppendReplHello(b []byte, h ReplHello) []byte {
	b = append(b, byte(TypeReplHello))
	b = le16(b, h.Version)
	return lei64(b, h.Term)
}

// DecodeReplHello decodes a replication handshake payload.
func DecodeReplHello(payload []byte) (ReplHello, error) {
	var h ReplHello
	c, err := open(payload, TypeReplHello)
	if err != nil {
		return h, err
	}
	h.Version = c.u16()
	h.Term = c.i64()
	return h, c.done()
}

func appendBytes(b, v []byte) []byte {
	b = le32(b, uint32(len(v)))
	return append(b, v...)
}

func (c *cursor) bytes() []byte {
	n := int(c.u32())
	if c.bad || n > len(c.b)-c.off {
		c.bad = true
		return nil
	}
	v := c.b[c.off : c.off+n : c.off+n]
	c.off += n
	return v
}

// AppendCatchup encodes a catch-up preamble payload.
func AppendCatchup(b []byte, m Catchup) []byte {
	b = append(b, byte(TypeCatchup))
	b = lei64(b, m.Term)
	b = lei64(b, m.JournalEpoch)
	b = lei64(b, m.LastIdx)
	return appendBytes(b, m.Ckpt)
}

// DecodeCatchup decodes a catch-up preamble payload.
func DecodeCatchup(payload []byte) (Catchup, error) {
	var m Catchup
	c, err := open(payload, TypeCatchup)
	if err != nil {
		return m, err
	}
	m.Term = c.i64()
	m.JournalEpoch = c.i64()
	m.LastIdx = c.i64()
	m.Ckpt = c.bytes()
	return m, c.done()
}

// AppendReplicate encodes a record-batch payload.
func AppendReplicate(b []byte, m Replicate) []byte {
	b = append(b, byte(TypeReplicate))
	b = lei64(b, m.Term)
	b = lei64(b, m.FirstIdx)
	b = le32(b, uint32(len(m.Recs)))
	for _, rec := range m.Recs {
		b = appendBytes(b, rec)
	}
	return b
}

// DecodeReplicate decodes a record-batch payload. The record slices alias
// the frame buffer — copy them to retain past the next read.
func DecodeReplicate(payload []byte) (Replicate, error) {
	var m Replicate
	c, err := open(payload, TypeReplicate)
	if err != nil {
		return m, err
	}
	m.Term = c.i64()
	m.FirstIdx = c.i64()
	n := int(c.u32())
	// Every record takes at least its 4-byte length, so a count the
	// bytes left cannot hold is malformed — and is refused before it
	// reserves the record slice.
	if c.bad || n > (len(c.b)-c.off)/4 {
		return m, ErrBadMessage
	}
	m.Recs = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		m.Recs = append(m.Recs, c.bytes())
		if c.bad {
			break
		}
	}
	return m, c.done()
}

// AppendReplAck encodes a replication ack payload.
func AppendReplAck(b []byte, m ReplAck) []byte {
	b = append(b, byte(TypeReplAck))
	b = lei64(b, m.Term)
	return lei64(b, m.Idx)
}

// DecodeReplAck decodes a replication ack payload.
func DecodeReplAck(payload []byte) (ReplAck, error) {
	var m ReplAck
	c, err := open(payload, TypeReplAck)
	if err != nil {
		return m, err
	}
	m.Term = c.i64()
	m.Idx = c.i64()
	return m, c.done()
}

// AppendReplRotate encodes a rotation / checkpoint-install payload.
func AppendReplRotate(b []byte, m ReplRotate) []byte {
	b = append(b, byte(TypeReplRotate))
	b = lei64(b, m.Term)
	b = lei64(b, m.JournalEpoch)
	return appendBytes(b, m.Ckpt)
}

// DecodeReplRotate decodes a rotation / checkpoint-install payload.
func DecodeReplRotate(payload []byte) (ReplRotate, error) {
	var m ReplRotate
	c, err := open(payload, TypeReplRotate)
	if err != nil {
		return m, err
	}
	m.Term = c.i64()
	m.JournalEpoch = c.i64()
	m.Ckpt = c.bytes()
	return m, c.done()
}

// AppendEpoch encodes a fencing notification payload.
func AppendEpoch(b []byte, term int64) []byte {
	return lei64(append(b, byte(TypeEpoch)), term)
}

// DecodeEpoch decodes a fencing notification payload, returning the
// sender's epoch.
func DecodeEpoch(payload []byte) (int64, error) {
	c, err := open(payload, TypeEpoch)
	if err != nil {
		return 0, err
	}
	term := c.i64()
	return term, c.done()
}
