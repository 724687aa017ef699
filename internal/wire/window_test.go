package wire

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/durable"
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
// construction — admitting millions of sequence numbers allocates nothing
// — and is one bit per slot: 4096 slots are 64 words. The broker's old
// map[int64]bool grew one entry per event for its lifetime.
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
	if len(w.slots) != 64 {
		t.Fatalf("window holds %d words, want 64 (one bit per slot)", len(w.slots))
	}
}

// TestWindowSnapshotAllocs: Snapshot sizes its result before filling it —
// one allocation for a non-empty window, none for an empty one. A
// checkpoint captures every node's window, so a growing slice here shows
// up once per node per checkpoint.
func TestWindowSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector shadow allocations")
	}
	empty := NewWindow(4096)
	if allocs := testing.AllocsPerRun(100, func() { empty.Snapshot() }); allocs != 0 {
		t.Errorf("empty Snapshot allocates %.1f times, want 0", allocs)
	}
	w := NewWindow(4096)
	for seq := int64(0); seq < 10000; seq += 3 {
		w.Admit(seq)
	}
	_, seqs := w.Snapshot()
	if allocs := testing.AllocsPerRun(100, func() { w.Snapshot() }); allocs > 1 {
		t.Errorf("Snapshot of %d seqs allocates %.1f times, want ≤ 1", len(seqs), allocs)
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

// refWindow is the residue-slot window Window replaced: one int64 per
// slot, holding the last seq admitted with that residue. It is the oracle
// the bitmap must answer exactly like, since the durable WindowState bytes
// and every consumer's behaviour were fixed against it.
type refWindow struct {
	slots []int64
	max   int64
}

func newRefWindow(size int) *refWindow {
	if size < 1 {
		size = 1
	}
	w := &refWindow{slots: make([]int64, size), max: -1}
	for i := range w.slots {
		w.slots[i] = -1
	}
	return w
}

func (w *refWindow) Admit(seq int64) bool {
	if w.Seen(seq) {
		return false
	}
	w.slots[seq%int64(len(w.slots))] = seq
	if seq > w.max {
		w.max = seq
	}
	return true
}

func (w *refWindow) Seen(seq int64) bool {
	if seq < 0 {
		return true
	}
	if w.max >= int64(len(w.slots)) && seq <= w.max-int64(len(w.slots)) {
		return true
	}
	return w.slots[seq%int64(len(w.slots))] == seq
}

func (w *refWindow) Snapshot() (max int64, seqs []int64) {
	size := int64(len(w.slots))
	for _, s := range w.slots {
		if s >= 0 && (w.max < size || s > w.max-size) {
			seqs = append(seqs, s)
		}
	}
	slices.Sort(seqs)
	return w.max, seqs
}

func restoreRefWindow(size int, max int64, seqs []int64) *refWindow {
	w := newRefWindow(size)
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

// windowPair drives a Window and its refWindow oracle through one op
// stream and reports the first answer on which they differ.
type windowPair struct {
	size int
	got  *Window
	want *refWindow
}

func newWindowPair(size int) *windowPair {
	return &windowPair{size: size, got: NewWindow(size), want: newRefWindow(size)}
}

// step applies one op. kind picks the seq relative to the oracle's max:
// a forward jump smaller than size, a jump of size or more, an in-window
// reorder, a seq far below the window, a negative seq, or (kind 5) a
// RestoreWindow into a window of 1+mag%200 slots from the Snapshot with
// some seqs dropped and max raised. The top bit of mag makes a seq op
// Seen-only. Every step ends by comparing the two Snapshots.
func (p *windowPair) step(kind byte, mag uint16) error {
	size, m, max := int64(p.size), int64(mag&0x7fff), p.want.max
	var seq int64
	switch kind % 6 {
	case 0:
		seq = max + 1 + m%size
	case 1:
		seq = max + size + m%(4*size)
	case 2:
		seq = max - m%size
	case 3:
		seq = max - size - m%(2*size)
	case 4:
		seq = -1 - m%8
	case 5:
		// A durable state need not be a Snapshot verbatim: it may lack
		// seqs and carry a max above every seq it lists.
		gm, gs := p.got.Snapshot()
		var keep []int64
		for _, s := range gs {
			if (s+m)%3 != 0 {
				keep = append(keep, s)
			}
		}
		gm += (m >> 8) % (2 * size)
		p.size = 1 + int(m%200)
		p.got = RestoreWindow(p.size, gm, keep)
		p.want = restoreRefWindow(p.size, gm, keep)
		if err := p.compareSnapshots(); err != nil {
			return fmt.Errorf("after restore: %w", err)
		}
		return nil
	}
	if g, w := p.got.Seen(seq), p.want.Seen(seq); g != w {
		return fmt.Errorf("size %d max %d: Seen(%d) = %v, reference %v", p.size, max, seq, g, w)
	}
	if mag&0x8000 == 0 {
		if g, w := p.got.Admit(seq), p.want.Admit(seq); g != w {
			return fmt.Errorf("size %d max %d: Admit(%d) = %v, reference %v", p.size, max, seq, g, w)
		}
	}
	if err := p.compareSnapshots(); err != nil {
		return fmt.Errorf("after seq %d: %w", seq, err)
	}
	return nil
}

func (p *windowPair) compareSnapshots() error {
	gm, gs := p.got.Snapshot()
	wm, ws := p.want.Snapshot()
	if gm != wm || !slices.Equal(gs, ws) {
		return fmt.Errorf("size %d: Snapshot = (%d, %v), reference (%d, %v)", p.size, gm, gs, wm, ws)
	}
	return nil
}

// TestWindowMatchesResidue: on seeded random op streams over sizes 1–200
// (multiples of 64 and not), the bitmap answers Seen, Admit, Snapshot and
// RestoreWindow exactly as the residue-slot window does.
func TestWindowMatchesResidue(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const traces, ops = 3000, 200
	for tr := 0; tr < traces; tr++ {
		size := 1 + rng.Intn(200)
		if fixed := []int{1, 63, 64, 65, 128, 200}; tr < len(fixed) {
			size = fixed[tr]
		}
		p := newWindowPair(size)
		for op := 0; op < ops; op++ {
			kind := byte(rng.Intn(5))
			if rng.Intn(40) == 0 {
				kind = 5
			}
			if err := p.step(kind, uint16(rng.Intn(1<<16))); err != nil {
				t.Fatalf("trace %d op %d: %v", tr, op, err)
			}
		}
	}
}

// FuzzWindowMatchesResidue decodes an op stream from bytes — the first
// byte picks the size, then three bytes per op — and checks the bitmap
// against the residue-slot oracle.
func FuzzWindowMatchesResidue(f *testing.F) {
	f.Add([]byte{63, 0, 1, 0, 1, 0, 9, 2, 3, 0, 3, 0, 0, 4, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 2, 0, 0})
	f.Add([]byte{199, 1, 0xff, 0x7f, 2, 5, 0, 5, 64, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := newWindowPair(1 + int(data[0])%200)
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			if err := p.step(ops[0], uint16(ops[1])|uint16(ops[2])<<8); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestWindowDurableCrossVersion: the durable form is unchanged. A window
// checkpointed through durable.WindowState by the residue-slot window
// restores into the bitmap, and the reverse, each answering Seen exactly
// as the window that wrote it.
func TestWindowDurableCrossVersion(t *testing.T) {
	const size = 4096
	rng := rand.New(rand.NewSource(5))
	ref, bm := newRefWindow(size), NewWindow(size)
	for seq := int64(0); seq < 20000; seq += 1 + rng.Int63n(3) {
		if rng.Intn(5) > 0 {
			ref.Admit(seq)
			bm.Admit(seq)
		}
	}
	refMax, refSeqs := ref.Snapshot()
	bmMax, bmSeqs := bm.Snapshot()

	dir, base := t.TempDir(), durable.BaseInfo{Hash: 1, Count: 1}
	opts := durable.Options{CheckpointRecords: -1, CheckpointInterval: -1}
	s, _, err := durable.Open(dir, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cp := &durable.Checkpoint{Windows: []durable.WindowState{
		{Node: 1, Size: size, Max: refMax, Seqs: refSeqs},
		{Node: 2, Size: size, Max: bmMax, Seqs: bmSeqs},
	}}
	if err := s.CommitCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, st, err := durable.Open(dir, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(st.Windows) != 2 {
		t.Fatalf("recovered %d windows, want 2", len(st.Windows))
	}
	fromRef := RestoreWindow(size, st.Windows[0].Max, st.Windows[0].Seqs)
	fromBitmap := restoreRefWindow(size, st.Windows[1].Max, st.Windows[1].Seqs)
	for seq := int64(-2); seq < 20000+size; seq++ {
		if fromRef.Seen(seq) != ref.Seen(seq) {
			t.Fatalf("reference checkpoint restored into the bitmap: Seen(%d) = %v, writer said %v", seq, fromRef.Seen(seq), ref.Seen(seq))
		}
		if fromBitmap.Seen(seq) != bm.Seen(seq) {
			t.Fatalf("bitmap checkpoint restored into the reference: Seen(%d) = %v, writer said %v", seq, fromBitmap.Seen(seq), bm.Seen(seq))
		}
	}
}

// BenchmarkWindowAdmitSparse admits every 1000th seq into a 4096-slot
// window, so every Admit slides the window by a quarter of its size: the
// slide clears whole words, not one bit per seq passed.
func BenchmarkWindowAdmitSparse(b *testing.B) {
	w := NewWindow(4096)
	seq := int64(0)
	b.ReportAllocs()
	for b.Loop() {
		w.Admit(seq)
		seq += 1000
	}
}
