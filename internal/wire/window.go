package wire

import (
	"math/bits"
	"slices"
)

// Window is a fixed-footprint sliding-window duplicate detector over
// sequence numbers, the one exactly-once window of the stack: the broker's
// consumers dedup delivery copies by publication seq (and checkpoint the
// window durably), the server dedups client publish sequence numbers (a
// publish retransmitted after a reconnect enters the broker exactly once),
// the client dedups delivery ids re-sent after a resume, and the
// federation router dedups each (node, tile) stream by global seq. Memory
// is one bit per window position for the window's life, however many
// numbers flow through it.
//
// The window covers the last size sequence numbers ending at the highest
// value admitted so far. Within any size consecutive sequence numbers the
// residues seq % size are unique, so one bit per residue suffices: for
// every seq in (max-size, max] the bit at seq % size is set exactly when
// seq was admitted. Moving max forward clears the residues it passes, which
// is the window sliding. A number at or below max-size has fallen out of
// the window and is conservatively treated as already seen. Duplicates
// only arise from immediate retransmission, so a correctly sized window
// never misclassifies a first arrival.
//
// Not safe for concurrent use.
type Window struct {
	slots []uint64 // residue bitmap: bit seq%size set when seq was admitted
	size  int64
	max   int64 // highest sequence number admitted; -1 before the first
}

// NewWindow returns a window remembering the last size sequence numbers
// (minimum 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	return &Window{slots: make([]uint64, (size+63)/64), size: int64(size), max: -1}
}

// Admit reports whether seq is new (true) or a duplicate / fallen out of
// the window (false), and records it. Allocation-free.
func (w *Window) Admit(seq int64) bool {
	if w.Seen(seq) {
		return false
	}
	w.slideTo(seq)
	r := seq % w.size
	w.slots[r>>6] |= 1 << (r & 63)
	return true
}

// Seen reports whether seq would be rejected as a duplicate, without
// recording it. Pairs with Admit in check-then-act protocols where the
// act can fail: the server checks Seen before handing a publish to the
// broker and only Admits once the broker accepted it, so a failed
// publish stays retryable.
func (w *Window) Seen(seq int64) bool {
	if seq < 0 {
		return true
	}
	if seq > w.max {
		return false
	}
	if seq <= w.max-w.size {
		return true // below the window: assume seen
	}
	r := seq % w.size
	return w.slots[r>>6]&(1<<(r&63)) != 0
}

// slideTo moves max forward to seq, clearing the residues of (max, seq]:
// none of those numbers has been admitted. It touches at most size/64
// words, whatever the jump.
func (w *Window) slideTo(seq int64) {
	if seq <= w.max {
		return
	}
	if seq-w.max >= w.size {
		clear(w.slots)
	} else {
		lo, hi := (w.max+1)%w.size, seq%w.size
		if lo <= hi {
			w.clearBits(lo, hi+1)
		} else {
			w.clearBits(lo, w.size)
			w.clearBits(0, hi+1)
		}
	}
	w.max = seq
}

// clearBits clears bits [lo, hi) of the bitmap, a word at a time.
func (w *Window) clearBits(lo, hi int64) {
	for lo < hi {
		word, off := lo>>6, lo&63
		n := min(hi-lo, 64-off)
		w.slots[word] &^= (^uint64(0) >> (64 - n)) << off
		lo += n
	}
}

// Snapshot returns the window's durable form: the highest sequence number
// admitted (-1 before the first) and the seqs still inside the window,
// ascending. Everything at or below max-size is already implied by max.
// It allocates the result once, and not at all for an empty window.
func (w *Window) Snapshot() (max int64, seqs []int64) {
	n := 0
	for _, word := range w.slots {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return w.max, nil
	}
	seqs = make([]int64, 0, n)
	top := w.max % w.size
	for i, word := range w.slots {
		for word != 0 {
			r := int64(i<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			// The one seq in (max-size, max] with residue r; set bits
			// are admitted seqs, so it is never negative.
			seqs = append(seqs, w.max-(top-r+w.size)%w.size)
		}
	}
	slices.Sort(seqs)
	return w.max, seqs
}

// RestoreWindow rebuilds a window of the given size from a Snapshot. When
// size differs from the captured window's, the oldest seqs may fall below
// the restored window — the safe direction for recovery, since fallen-out
// seqs read as already seen (suppressing redelivery rather than
// duplicating it).
func RestoreWindow(size int, max int64, seqs []int64) *Window {
	w := NewWindow(size)
	sorted := slices.Clone(seqs)
	slices.Sort(sorted)
	for _, s := range sorted {
		w.Admit(s)
	}
	w.slideTo(max)
	return w
}
