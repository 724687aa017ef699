package federate

import "testing"

// TestDedupWindowIsNotResidue pins why federation keeps its own ring
// instead of wire.Window: a residue window treats everything far below its
// highest key as seen and rejects negative keys, and both would turn a
// legitimate first delivery into a loss here.
func TestDedupWindowIsNotResidue(t *testing.T) {
	w := newDedupWindow(4)
	if !w.admit(100_000) {
		t.Fatal("first key rejected")
	}
	// A lagging shard's first delivery to this node carries a much lower
	// global seq: it is new, not stale.
	if !w.admit(3) {
		t.Fatal("low key after a high one rejected: a lagging shard's delivery would be lost")
	}
	if w.admit(3) || w.admit(100_000) {
		t.Fatal("duplicate admitted")
	}
	// A replay from an earlier incarnation dedups under a negative
	// synthetic key: admitted once, then rejected.
	replay := ^(int64(2)<<48 | 17)
	if !w.admit(replay) {
		t.Fatal("negative replay key rejected")
	}
	if w.admit(replay) {
		t.Fatal("repeated replay key admitted")
	}
}
