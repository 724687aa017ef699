package wire

import (
	"math/rand"
	"slices"
	"testing"
)

func TestWindowDedup(t *testing.T) {
	w := NewWindow(4)
	for seq := int64(0); seq < 10; seq++ {
		if w.Seen(seq) || !w.Admit(seq) {
			t.Fatalf("first arrival %d rejected", seq)
		}
		if !w.Seen(seq) || w.Admit(seq) {
			t.Fatalf("duplicate %d admitted", seq)
		}
	}
	// 5 has fallen out of the window (max-size = 5): treated as seen.
	if !w.Seen(5) || w.Admit(5) {
		t.Fatal("below-window seq admitted")
	}
	// 6..9 are still inside and already seen.
	for seq := int64(6); seq < 10; seq++ {
		if w.Admit(seq) {
			t.Fatalf("in-window duplicate %d admitted", seq)
		}
	}
	if max, _ := w.Snapshot(); max != 9 {
		t.Fatalf("max = %d", max)
	}
	if !w.Seen(-1) || w.Admit(-1) {
		t.Fatal("negative seq admitted")
	}
}

func TestWindowBasic(t *testing.T) {
	w := NewWindow(4)
	for seq := int64(0); seq < 4; seq++ {
		if !w.Admit(seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
		if w.Admit(seq) {
			t.Fatalf("duplicate seq %d admitted", seq)
		}
	}
	// Sliding forward reuses residues without confusing distinct seqs.
	if !w.Admit(4) {
		t.Fatal("seq 4 rejected")
	}
	if w.Admit(4) {
		t.Fatal("duplicate seq 4 admitted")
	}
	// 0 has fallen out of the window (max-size = 0): treated as seen.
	if w.Admit(0) {
		t.Fatal("below-window seq 0 admitted")
	}
	// 1..3 are still inside and already seen.
	for seq := int64(1); seq < 4; seq++ {
		if w.Admit(seq) {
			t.Fatalf("in-window duplicate %d admitted", seq)
		}
	}
	if w.Admit(-1) {
		t.Fatal("negative seq admitted")
	}
}

func TestWindowOutOfOrder(t *testing.T) {
	w := NewWindow(8)
	// Arrivals out of order within the window are each admitted once.
	for _, seq := range []int64{5, 2, 7, 0, 3} {
		if !w.Admit(seq) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	for _, seq := range []int64{5, 2, 7, 0, 3} {
		if w.Admit(seq) {
			t.Fatalf("duplicate %d admitted", seq)
		}
	}
	// Unseen in-window seqs still pass.
	for _, seq := range []int64{1, 4, 6} {
		if !w.Admit(seq) {
			t.Fatalf("unseen in-window %d rejected", seq)
		}
	}
}

// TestWindowExactlyOnceStream: a long shuffled-with-duplicates stream
// must be admitted exactly once per distinct sequence number, as long as
// reordering stays inside the window — the dedup property the reliability
// protocol needs.
func TestWindowExactlyOnceStream(t *testing.T) {
	const window = 64
	w := NewWindow(window)
	rng := rand.New(rand.NewSource(700))
	admitted := map[int64]int{}
	// Deliver seqs 0..9999 shuffled within blocks of 32 (so reordering
	// distance stays well inside the window) with 20% immediate duplicates.
	base := make([]int64, 10000)
	for i := range base {
		base[i] = int64(i)
	}
	for s := 0; s < len(base); s += 32 {
		blk := base[s:min(s+32, len(base))]
		rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	for _, seq := range base {
		if w.Admit(seq) {
			admitted[seq]++
		}
		if rng.Float64() < 0.2 && w.Admit(seq) {
			t.Fatalf("immediate duplicate of %d admitted", seq)
		}
	}
	for seq := int64(0); seq < 10000; seq++ {
		if admitted[seq] != 1 {
			t.Fatalf("seq %d admitted %d times", seq, admitted[seq])
		}
	}
}

// TestWindowFixedFootprint: the detector's memory is fixed at
// construction — admitting millions of sequence numbers allocates nothing.
// The broker's old map[int64]bool grew one entry per event for its
// lifetime.
func TestWindowFixedFootprint(t *testing.T) {
	w := NewWindow(4096)
	seq := int64(0)
	allocs := testing.AllocsPerRun(200000, func() {
		w.Admit(seq)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("Admit allocates %.1f per call; dedup memory is not flat", allocs)
	}
	if len(w.slots) != 4096 {
		t.Fatalf("window resized to %d", len(w.slots))
	}
}

func TestWindowTinySize(t *testing.T) {
	w := NewWindow(0) // clamps to 1: "remember only the latest"
	if !w.Admit(10) || w.Admit(10) {
		t.Fatal("size-1 window broken")
	}
	if !w.Admit(11) {
		t.Fatal("size-1 window rejected the next seq")
	}
	if w.Admit(10) {
		t.Fatal("size-1 window re-admitted an old seq")
	}
}

// TestWindowSnapshotRestore: a restored window answers Seen exactly as the
// captured one did, and restoring into a smaller window only ever turns
// "fresh" into "seen" (suppress a redelivery, never duplicate one).
func TestWindowSnapshotRestore(t *testing.T) {
	w := NewWindow(16)
	if max, seqs := w.Snapshot(); max != -1 || seqs != nil {
		t.Fatalf("empty snapshot = (%d, %v)", max, seqs)
	}
	for _, seq := range []int64{3, 40, 31, 38, 25, 39} {
		w.Admit(seq)
	}
	max, seqs := w.Snapshot()
	if max != 40 || !slices.Equal(seqs, []int64{25, 31, 38, 39, 40}) {
		t.Fatalf("snapshot = (%d, %v)", max, seqs)
	}
	same := RestoreWindow(16, max, seqs)
	small := RestoreWindow(4, max, seqs)
	for seq := int64(-1); seq < 60; seq++ {
		if same.Seen(seq) != w.Seen(seq) {
			t.Fatalf("restored Seen(%d) = %v, captured %v", seq, same.Seen(seq), w.Seen(seq))
		}
		if w.Seen(seq) && !small.Seen(seq) {
			t.Fatalf("smaller restore forgot seen seq %d", seq)
		}
	}
}
