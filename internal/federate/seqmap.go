package federate

import "sync"

// seqMap translates one shard's local publication seqs to router-global
// seqs. A shard's deliveries race the router's own bookkeeping — the
// broker can deliver an event before the DecideSeq call that published
// it returns — so the router's Feed path polls a missing entry briefly
// before declaring it unmapped.
//
// It is an array indexed by local seq: slot local % len holds the pair
// (local, global). A shard hands out local seqs densely, so local+len
// overwriting local's slot forgets the translation len publications back,
// as an arrival-order table of len entries would, without a map. A
// re-recorded local seq (a promoted broker reusing seqs the dead
// incarnation consumed) overwrites its own slot with the new global seq.
type seqMap struct {
	mu    sync.Mutex
	slots []seqPair
}

type seqPair struct{ local, global int64 }

func newSeqMap(n int) *seqMap {
	s := &seqMap{slots: make([]seqPair, n)}
	for i := range s.slots {
		s.slots[i].local = -1
	}
	return s
}

// record stores local→global.
func (s *seqMap) record(local, global int64) {
	s.mu.Lock()
	s.slots[local%int64(len(s.slots))] = seqPair{local, global}
	s.mu.Unlock()
}

// lookup returns the global seq recorded for local, without waiting.
func (s *seqMap) lookup(local int64) (int64, bool) {
	if local < 0 {
		return 0, false
	}
	s.mu.Lock()
	p := s.slots[local%int64(len(s.slots))]
	s.mu.Unlock()
	return p.global, p.local == local
}
