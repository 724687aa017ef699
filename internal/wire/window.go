package wire

import "slices"

// Window is a fixed-footprint sliding-window duplicate detector over
// sequence numbers, the one exactly-once window of the stack: the broker's
// consumers dedup delivery copies by publication seq (and checkpoint the
// window durably), the server dedups client publish sequence numbers (a
// publish retransmitted after a reconnect enters the broker exactly once),
// and the client dedups delivery ids re-sent after a resume. Memory is one
// int64 slot per window position for the window's life, however many
// numbers flow through it.
//
// The window covers the last size sequence numbers ending at the highest
// value admitted so far. Within any size consecutive sequence numbers the
// residues seq % size are unique, so one slot per residue suffices: a slot
// holding seq means "seq was seen", and overwriting it when a newer number
// with the same residue arrives is exactly the window sliding forward. A
// number at or below max-size has fallen out of the window and is
// conservatively treated as already seen. Duplicates only arise from
// immediate retransmission, so a correctly sized window never
// misclassifies a first arrival.
//
// Not safe for concurrent use.
type Window struct {
	slots []int64
	max   int64 // highest sequence number admitted; -1 before the first
}

// NewWindow returns a window remembering the last size sequence numbers
// (minimum 1).
func NewWindow(size int) *Window {
	if size < 1 {
		size = 1
	}
	w := &Window{slots: make([]int64, size), max: -1}
	for i := range w.slots {
		w.slots[i] = -1
	}
	return w
}

// Admit reports whether seq is new (true) or a duplicate / fallen out of
// the window (false), and records it. Allocation-free.
func (w *Window) Admit(seq int64) bool {
	if w.Seen(seq) {
		return false
	}
	w.slots[seq%int64(len(w.slots))] = seq
	if seq > w.max {
		w.max = seq
	}
	return true
}

// Seen reports whether seq would be rejected as a duplicate, without
// recording it. Pairs with Admit in check-then-act protocols where the
// act can fail: the server checks Seen before handing a publish to the
// broker and only Admits once the broker accepted it, so a failed
// publish stays retryable; a durable consumer checks Seen, journals the
// ack, and only then Admits.
func (w *Window) Seen(seq int64) bool {
	if seq < 0 {
		return true
	}
	if w.max >= int64(len(w.slots)) && seq <= w.max-int64(len(w.slots)) {
		return true // below the window: assume seen
	}
	return w.slots[seq%int64(len(w.slots))] == seq
}

// Snapshot returns the window's durable form: the highest sequence number
// admitted (-1 before the first) and the seqs still inside the window,
// ascending. Everything at or below max-size is already implied by max.
func (w *Window) Snapshot() (max int64, seqs []int64) {
	size := int64(len(w.slots))
	for _, s := range w.slots {
		if s >= 0 && (w.max < size || s > w.max-size) {
			seqs = append(seqs, s)
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
	if max > w.max {
		w.max = max
	}
	return w
}
