package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
)

const (
	ckptName    = "checkpoint.ckpt"
	ckptTmpName = "checkpoint.tmp"
)

// Checkpoint is the serialized broker state at one point in time. It
// covers everything a restart cannot rebuild from the base subscriptions
// alone: the live churned subscriptions (and which base subscriptions were
// removed), the per-consumer dedup windows, the next seq / durable-id
// allocators, and the counter values the broker preserves across a durable
// restart. The journal epoch the checkpoint belongs to is stamped by the
// Store at commit time; recovery replays that epoch's journal (and any
// later ones) on top.
type Checkpoint struct {
	NextSeq     int64
	NextID      int64
	RemovedBase []int64
	Subs        []SubRecord
	Windows     []WindowState
	Counters    map[string]int64
}

// encodeCheckpoint renders the full checkpoint file: magic, u64 body
// length, u32 crc32c(body), body. Map iteration is sorted so the bytes are
// deterministic for a given state.
func encodeCheckpoint(cp *Checkpoint, epoch int64, base BaseInfo) []byte {
	var body []byte
	body = binary.LittleEndian.AppendUint64(body, uint64(epoch))
	body = binary.LittleEndian.AppendUint64(body, base.Hash)
	body = binary.LittleEndian.AppendUint64(body, uint64(base.Count))
	body = binary.LittleEndian.AppendUint64(body, uint64(cp.NextSeq))
	body = binary.LittleEndian.AppendUint64(body, uint64(cp.NextID))

	body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.RemovedBase)))
	for _, id := range cp.RemovedBase {
		body = binary.LittleEndian.AppendUint64(body, uint64(id))
	}

	body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.Subs)))
	for _, r := range cp.Subs {
		sub := encodeSubRecord(nil, r)
		body = binary.LittleEndian.AppendUint32(body, uint32(len(sub)))
		body = append(body, sub...)
	}

	body = binary.LittleEndian.AppendUint32(body, uint32(len(cp.Windows)))
	for _, w := range cp.Windows {
		body = binary.LittleEndian.AppendUint64(body, uint64(int64(w.Node)))
		body = binary.LittleEndian.AppendUint32(body, uint32(w.Size))
		body = binary.LittleEndian.AppendUint64(body, uint64(w.Max))
		body = binary.LittleEndian.AppendUint32(body, uint32(len(w.Seqs)))
		for _, s := range w.Seqs {
			body = binary.LittleEndian.AppendUint64(body, uint64(s))
		}
	}

	names := make([]string, 0, len(cp.Counters))
	for name := range cp.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	body = binary.LittleEndian.AppendUint32(body, uint32(len(names)))
	for _, name := range names {
		body = binary.LittleEndian.AppendUint16(body, uint16(len(name)))
		body = append(body, name...)
		body = binary.LittleEndian.AppendUint64(body, uint64(cp.Counters[name]))
	}

	out := make([]byte, 0, len(ckptMagic)+12+len(body))
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

func decodeCheckpoint(b []byte) (*Checkpoint, int64, BaseInfo, error) {
	if len(b) < len(ckptMagic)+12 || string(b[:8]) != ckptMagic {
		return nil, 0, BaseInfo{}, errors.New("durable: bad checkpoint header")
	}
	bodyLen := binary.LittleEndian.Uint64(b[8:])
	sum := binary.LittleEndian.Uint32(b[16:])
	body := b[20:]
	if uint64(len(body)) != bodyLen {
		return nil, 0, BaseInfo{}, fmt.Errorf("durable: checkpoint body %d bytes, header says %d", len(body), bodyLen)
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, 0, BaseInfo{}, errors.New("durable: checkpoint CRC mismatch")
	}

	c := &cursor{b: body}
	epoch := c.i64()
	base := BaseInfo{Hash: c.u64(), Count: c.i64()}
	cp := &Checkpoint{
		NextSeq:  c.i64(),
		NextID:   c.i64(),
		Counters: map[string]int64{},
	}

	// Every count is checked against the bytes left before it sizes
	// anything: each element takes at least the given bytes.
	nRemoved := c.count(8)
	if c.bad {
		return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (removed-base)")
	}
	cp.RemovedBase = make([]int64, nRemoved)
	for i := range cp.RemovedBase {
		cp.RemovedBase[i] = c.i64()
	}

	nSubs := c.count(4 + 1)
	if c.bad {
		return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (subs)")
	}
	cp.Subs = make([]SubRecord, 0, nSubs)
	for i := 0; i < nSubs; i++ {
		n := int(c.u32())
		if c.bad || n > len(c.b)-c.off {
			return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (sub record)")
		}
		rec, err := decodeRecord(c.b[c.off : c.off+n])
		if err != nil || rec.kind != kindSubscribe {
			return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (sub record)")
		}
		c.off += n
		cp.Subs = append(cp.Subs, rec.sub)
	}

	nWin := c.count(8 + 4 + 8 + 4)
	if c.bad {
		return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (windows)")
	}
	cp.Windows = make([]WindowState, 0, nWin)
	for i := 0; i < nWin; i++ {
		w := WindowState{Node: c.node(), Size: int(c.u32()), Max: c.i64()}
		nSeqs := c.count(8)
		if c.bad {
			return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (window seqs)")
		}
		w.Seqs = make([]int64, nSeqs)
		for j := range w.Seqs {
			w.Seqs[j] = c.i64()
		}
		cp.Windows = append(cp.Windows, w)
	}

	nCtr := c.count(2 + 8)
	if c.bad {
		return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (counters)")
	}
	for i := 0; i < nCtr; i++ {
		n := int(c.u16())
		if c.bad || c.off+n > len(c.b) {
			return nil, 0, BaseInfo{}, errors.New("durable: corrupt checkpoint (counter name)")
		}
		name := string(c.b[c.off : c.off+n])
		c.off += n
		cp.Counters[name] = c.i64()
	}

	if err := c.done(); err != nil {
		return nil, 0, BaseInfo{}, fmt.Errorf("durable: corrupt checkpoint: %w", err)
	}
	return cp, epoch, base, nil
}

// count reads a u32 element count and marks the cursor bad when that many
// elements of at least min bytes each cannot fit in the bytes left.
func (c *cursor) count(min int) int {
	n := int64(c.u32())
	if n > int64(len(c.b)-c.off)/int64(min) {
		c.bad = true
		return 0
	}
	return int(n)
}

func (c *cursor) u32() uint32 {
	if c.bad || c.off+4 > len(c.b) {
		c.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}
