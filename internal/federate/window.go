package federate

import (
	"math"
	"sync"
)

// ringEmpty marks an unused key slot. Global seqs start at 0 and
// synthetic replay keys are bit-complements of non-negative values, so
// MinInt64 collides with neither.
const ringEmpty = math.MinInt64

// ring is a bounded map that forgets by arrival: it holds the n most
// recently inserted keys, whatever their values, and drops the oldest
// when a new key needs its slot. It is not concurrency-safe.
//
// The router keeps two kinds: a per-subscriber-node dedup window of
// admitted global seqs (ring[struct{}], under the router's dedup lock),
// and a per-shard local→global seq translation (ring[int64], inside
// seqMap).
//
// Why not wire.Window, the residue-slot window the broker and transport
// share: that one forgets by *value* (anything at or below max-size reads
// as seen), which is right for one dense, nearly in-order seq stream. A
// node's keys here are neither: global seqs are sparse per node (most
// events miss it) and a node receives from several shards — its
// straddlers live on several tiles, and it may own subscriptions in
// several tiles — so its deliveries arrive out of order, and a lagging
// shard's first delivery can sit far below the node's highest key. A
// residue window would drop it as "already seen", turning a duplicate
// filter into a loss. Synthetic replay keys are negative, which a residue
// window rejects outright. The translation table is no residue window
// either: it maps each local seq to a value, and concurrent DecideSeq
// callers record entries out of order. TestDedupWindowIsNotResidue pins
// the dedup cases.
type ring[V any] struct {
	m    map[int64]V
	keys []int64
	next int
}

func newRing[V any](n int) *ring[V] {
	r := &ring[V]{m: make(map[int64]V, n), keys: make([]int64, n)}
	for i := range r.keys {
		r.keys[i] = ringEmpty
	}
	return r
}

// put stores key→v and reports whether key was new. A new key takes the
// oldest key's slot; a known key keeps its slot and takes the new value.
func (r *ring[V]) put(key int64, v V) bool {
	_, known := r.m[key]
	if !known {
		if old := r.keys[r.next]; old != ringEmpty {
			delete(r.m, old)
		}
		r.keys[r.next] = key
		r.next = (r.next + 1) % len(r.keys)
	}
	r.m[key] = v
	return !known
}

// seqMap translates one shard's local publication seqs to router-global
// seqs. A shard's deliveries race the router's own bookkeeping — the
// broker can deliver an event before the DecideSeq call that published
// it returns — so the router's Feed path polls a missing entry briefly
// before declaring it unmapped.
type seqMap struct {
	mu sync.Mutex
	r  *ring[int64]
}

func newSeqMap(n int) *seqMap { return &seqMap{r: newRing[int64](n)} }

// record stores local→global.
func (s *seqMap) record(local, global int64) {
	s.mu.Lock()
	s.r.put(local, global)
	s.mu.Unlock()
}

// lookup returns the global seq recorded for local, without waiting.
func (s *seqMap) lookup(local int64) (int64, bool) {
	s.mu.Lock()
	g, ok := s.r.m[local]
	s.mu.Unlock()
	return g, ok
}
