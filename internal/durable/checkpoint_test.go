package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// wrapCheckpoint frames a checkpoint body as encodeCheckpoint does:
// magic, body length, CRC, body.
func wrapCheckpoint(body []byte) []byte {
	out := append([]byte(ckptMagic), make([]byte, 12)...)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(body)))
	binary.LittleEndian.PutUint32(out[16:], crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

// checkpointBombs are CRC-valid checkpoint bodies whose counts claim far
// more elements than their bytes hold, one per count field. A decoder that
// trusts such a count allocates for it before running out of bytes.
func checkpointBombs() map[string][]byte {
	const huge = maxPayloadLen // the largest count a sanity bound alone admits
	head := make([]byte, 5*8)  // epoch, base hash, base count, next seq, next id
	u32 := func(b []byte, vs ...uint32) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint32(b, v)
		}
		return b
	}
	window := u32(make([]byte, 8), 4)           // node, size
	window = append(window, make([]byte, 8)...) // max
	return map[string][]byte{
		"removed":  u32(bytes.Clone(head), huge),
		"subs":     u32(bytes.Clone(head), 0, huge),
		"windows":  u32(bytes.Clone(head), 0, 0, huge),
		"seqs":     u32(append(u32(bytes.Clone(head), 0, 0, 1), window...), huge),
		"counters": u32(bytes.Clone(head), 0, 0, 0, huge),
	}
}

// TestDecodeCheckpointCountBomb: a count the remaining bytes cannot fill
// is rejected before it sizes anything.
func TestDecodeCheckpointCountBomb(t *testing.T) {
	for name, body := range checkpointBombs() {
		t.Run(name, func(t *testing.T) {
			raw := wrapCheckpoint(body)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, _, err := decodeCheckpoint(raw)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d-byte checkpoint decoded", len(raw))
			}
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Fatalf("%d-byte checkpoint allocated %d bytes before failing", len(raw), n)
			}
		})
	}
}

// FuzzDecodeCheckpoint feeds arbitrary checkpoint bodies, framed with a
// valid header and CRC so the fuzzer reaches the body decoder. Decoding
// must never panic, and whatever it accepts must survive a round trip:
// decode(encode(decode(b))) == decode(b), compared through the encodings
// so that NaN bounds compare equal.
func FuzzDecodeCheckpoint(f *testing.F) {
	cp := &Checkpoint{
		NextSeq:     9,
		NextID:      12,
		RemovedBase: []int64{1, 3},
		Subs:        []SubRecord{{ID: 10, Owner: 4, Rect: testRect(0.25, math.Inf(1))}},
		Windows:     []WindowState{{Node: 4, Size: 64, Max: 8, Seqs: []int64{7, 8}}},
		Counters:    map[string]int64{"published": 9, "deliveries": 30},
	}
	f.Add(encodeCheckpoint(cp, 3, BaseInfo{Hash: 5, Count: 10})[len(ckptMagic)+12:])
	for _, body := range checkpointBombs() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		cp, epoch, base, err := decodeCheckpoint(wrapCheckpoint(body))
		if err != nil {
			return
		}
		enc := encodeCheckpoint(cp, epoch, base)
		cp2, epoch2, base2, err := decodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if epoch2 != epoch || base2 != base || !bytes.Equal(encodeCheckpoint(cp2, epoch2, base2), enc) {
			t.Fatalf("checkpoint changed in a round trip:\n%+v\n%+v", cp, cp2)
		}
	})
}
