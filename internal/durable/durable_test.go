package durable

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

func testRect(lo, hi float64) space.Rect {
	return space.Rect{{Lo: lo, Hi: hi}, {Lo: lo, Hi: hi}}
}

func testSub(owner topology.NodeID, lo, hi float64) workload.Subscription {
	return workload.Subscription{Owner: owner, Rect: testRect(lo, hi)}
}

func testEvent(pub topology.NodeID, x float64) workload.Event {
	return workload.Event{Pub: pub, Point: space.Point{x, x}}
}

// quick disables the automatic checkpoint triggers so tests control
// rotation explicitly.
func quick() Options {
	return Options{CheckpointRecords: -1, CheckpointInterval: -1}
}

func mustOpen(t *testing.T, dir string, base BaseInfo, opts Options) (*Store, *State) {
	t.Helper()
	s, st, err := Open(dir, base, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestDurableFreshOpen(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 42, Count: 3}
	s, st := mustOpen(t, dir, base, quick())
	if st != nil {
		t.Fatalf("fresh directory returned state %+v", st)
	}
	if s.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", s.Epoch())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName(1))); err != nil {
		t.Fatalf("journal 1 missing: %v", err)
	}
}

func TestDurableJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 7, Count: 2}
	s, _ := mustOpen(t, dir, base, quick())

	subA := SubRecord{ID: 2, Owner: 5, Rect: testRect(0.1, 0.4)}
	subB := SubRecord{ID: 3, Owner: 9, Rect: testRect(0.5, 0.9)}
	for _, r := range []SubRecord{subA, subB} {
		if err := s.AppendSubscribe(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendUnsubscribe(3); err != nil { // churned: disappears
		t.Fatal(err)
	}
	if err := s.AppendUnsubscribe(1); err != nil { // base: recorded as removed
		t.Fatal(err)
	}
	if err := s.AppendPublish(0, testEvent(1, 0.25)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublish(1, testEvent(2, 0.75)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendAcks(0, []topology.NodeID{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, st := mustOpen(t, dir, base, quick())
	if st == nil {
		t.Fatal("no state recovered")
	}
	if st.Stats.CheckpointLoaded {
		t.Error("checkpoint loaded from a checkpoint-free directory")
	}
	if st.Stats.RecordsReplayed != 7 {
		t.Errorf("RecordsReplayed = %d, want 7", st.Stats.RecordsReplayed)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != 2 || st.Subs[0].Owner != 5 {
		t.Errorf("Subs = %+v, want just id 2 owner 5", st.Subs)
	}
	if !st.Subs[0].Rect.ContainsRect(subA.Rect) || !subA.Rect.ContainsRect(st.Subs[0].Rect) {
		t.Errorf("sub rect %v round-tripped to %v", subA.Rect, st.Subs[0].Rect)
	}
	if len(st.RemovedBase) != 1 || st.RemovedBase[0] != 1 {
		t.Errorf("RemovedBase = %v, want [1]", st.RemovedBase)
	}
	if st.NextID != 4 {
		t.Errorf("NextID = %d, want 4", st.NextID)
	}
	if st.NextSeq != 2 {
		t.Errorf("NextSeq = %d, want 2", st.NextSeq)
	}
	if len(st.Outstanding) != 2 || st.Outstanding[0].Seq != 0 || st.Outstanding[1].Seq != 1 {
		t.Errorf("Outstanding = %+v, want seqs [0 1]", st.Outstanding)
	}
	if got := st.Outstanding[1].Ev; got.Pub != 2 || got.Point[0] != 0.75 {
		t.Errorf("publish record round-tripped to %+v", got)
	}
	if len(st.Acks) != 1 || st.Acks[0] != (AckRecord{Node: 5, Seq: 0}) {
		t.Errorf("Acks = %+v", st.Acks)
	}
}

func TestDurableCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 11, Count: 4}
	s, _ := mustOpen(t, dir, base, quick())

	if err := s.AppendSubscribe(SubRecord{ID: 4, Owner: 3, Rect: testRect(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublish(0, testEvent(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch after rotation = %d, want 2", s.Epoch())
	}
	// Carry the still-inflight publish into the new epoch, then commit.
	if err := s.AppendPublishes([]PublishRecord{{Seq: 0, Ev: testEvent(1, 0.5)}}); err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		NextSeq: 1,
		NextID:  5,
		Subs:    []SubRecord{{ID: 4, Owner: 3, Rect: testRect(0, 1)}},
		Windows: []WindowState{{Node: 3, Size: 8, Max: 0, Seqs: []int64{0}}},
		Counters: map[string]int64{
			"published": 1, "deliveries": 1,
		},
	}
	if err := s.CommitCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, journalName(1))); !os.IsNotExist(err) {
		t.Errorf("journal 1 not deleted after checkpoint (err=%v)", err)
	}
	// Post-checkpoint traffic lands in epoch 2.
	if err := s.AppendPublish(1, testEvent(2, 0.9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, st := mustOpen(t, dir, base, quick())
	if st == nil || !st.Stats.CheckpointLoaded {
		t.Fatal("checkpoint not loaded")
	}
	if st.Epoch != 2 || st.Stats.JournalsReplayed != 1 {
		t.Errorf("epoch %d journals %d, want 2/1", st.Epoch, st.Stats.JournalsReplayed)
	}
	if st.NextSeq != 2 || st.NextID != 5 {
		t.Errorf("NextSeq=%d NextID=%d, want 2/5", st.NextSeq, st.NextID)
	}
	if len(st.Subs) != 1 || st.Subs[0].ID != 4 {
		t.Errorf("Subs = %+v", st.Subs)
	}
	if len(st.Windows) != 1 || st.Windows[0].Node != 3 || st.Windows[0].Max != 0 {
		t.Errorf("Windows = %+v", st.Windows)
	}
	if st.Counters["published"] != 1 || st.Counters["deliveries"] != 1 {
		t.Errorf("Counters = %v", st.Counters)
	}
	if len(st.Outstanding) != 2 {
		t.Errorf("Outstanding = %+v, want carried seq 0 and fresh seq 1", st.Outstanding)
	}
}

func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 1, Count: 1}
	inj := faults.NewCrashInjector(faults.CrashPlan{AtAppend: 3, Point: faults.CrashTornAppend})
	opts := quick()
	opts.Crash = inj
	s, _ := mustOpen(t, dir, base, opts)

	if err := s.AppendPublish(0, testEvent(1, 0.1)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublish(1, testEvent(1, 0.2)); err != nil {
		t.Fatal(err)
	}
	// Third append is torn mid-frame: header plus half the payload hit disk.
	if err := s.AppendPublish(2, testEvent(1, 0.3)); err != faults.ErrCrashed {
		t.Fatalf("torn append returned %v, want ErrCrashed", err)
	}
	if !s.Crashed() {
		t.Fatal("store not dead after crash point")
	}
	if err := s.AppendPublish(3, testEvent(1, 0.4)); err != ErrAlreadyCrashed || !errors.Is(err, faults.ErrCrashed) {
		t.Fatalf("append after death returned %v", err)
	}
	s.Close()

	s2, st := mustOpen(t, dir, base, quick())
	if st == nil {
		t.Fatal("no state recovered")
	}
	if st.Stats.TornTruncations != 1 || st.Stats.TornTailBytes == 0 {
		t.Errorf("torn stats = %+v, want one truncation with bytes > 0", st.Stats)
	}
	if len(st.Outstanding) != 2 {
		t.Errorf("Outstanding = %+v, want the two durable publishes", st.Outstanding)
	}
	// The telemetry counter carries the truncation.
	reg := telemetry.NewRegistry()
	s2.Instrument(reg)
	snap := reg.Snapshot()
	if got := snap["durable"].Counters["torn_truncations"]; got != 1 {
		t.Errorf("torn_truncations counter = %d, want 1", got)
	}
	// The truncated journal accepts appends again.
	if err := s2.AppendPublish(2, testEvent(1, 0.3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3 := mustOpen(t, dir, base, quick())
	if len(st3.Outstanding) != 3 || st3.Stats.TornTruncations != 0 {
		t.Errorf("after repair: %+v", st3.Stats)
	}
}

func TestDurableCrashBeforeAndAfterAppend(t *testing.T) {
	for _, tc := range []struct {
		point faults.CrashPoint
		want  int // outstanding publishes after recovery
	}{
		{faults.CrashBeforeAppend, 1}, // dying record never written
		{faults.CrashAfterAppend, 2},  // dying record fully written
	} {
		t.Run(tc.point.String(), func(t *testing.T) {
			dir := t.TempDir()
			base := BaseInfo{Hash: 2, Count: 1}
			opts := quick()
			opts.Crash = faults.NewCrashInjector(faults.CrashPlan{AtAppend: 2, Point: tc.point})
			s, _ := mustOpen(t, dir, base, opts)
			if err := s.AppendPublish(0, testEvent(1, 0.1)); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendPublish(1, testEvent(1, 0.2)); err != faults.ErrCrashed {
				t.Fatalf("crash append returned %v", err)
			}
			s.Close()

			_, st := mustOpen(t, dir, base, quick())
			if st == nil || len(st.Outstanding) != tc.want {
				t.Fatalf("Outstanding = %+v, want %d records", st, tc.want)
			}
			if st.Stats.TornTruncations != 0 {
				t.Errorf("unexpected truncation: %+v", st.Stats)
			}
		})
	}
}

func TestDurableCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 3, Count: 1}
	opts := quick()
	opts.Crash = faults.NewCrashInjector(faults.CrashPlan{Point: faults.CrashMidCheckpoint})
	s, _ := mustOpen(t, dir, base, opts)
	if err := s.AppendPublish(0, testEvent(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublishes([]PublishRecord{{Seq: 0, Ev: testEvent(1, 0.5)}}); err != nil {
		t.Fatal(err)
	}
	err := s.CommitCheckpoint(&Checkpoint{NextSeq: 1, NextID: 1})
	if err != faults.ErrCrashed {
		t.Fatalf("mid-checkpoint commit returned %v, want ErrCrashed", err)
	}
	s.Close()

	// The temp file is stranded; no checkpoint was installed; both journal
	// epochs survive and replay contiguously from epoch 1.
	if _, err := os.Stat(filepath.Join(dir, ckptTmpName)); err != nil {
		t.Fatalf("expected stranded checkpoint temp file: %v", err)
	}
	_, st := mustOpen(t, dir, base, quick())
	if st == nil {
		t.Fatal("no state recovered")
	}
	if st.Stats.CheckpointLoaded {
		t.Error("half-written checkpoint was loaded")
	}
	if st.Stats.JournalsReplayed != 2 {
		t.Errorf("JournalsReplayed = %d, want 2", st.Stats.JournalsReplayed)
	}
	// Seq 0 appears in both epochs (original + carry): replay dedups by seq.
	if len(st.Outstanding) != 1 || st.Outstanding[0].Seq != 0 {
		t.Errorf("Outstanding = %+v, want one record for seq 0", st.Outstanding)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTmpName)); !os.IsNotExist(err) {
		t.Errorf("stranded temp file not cleaned up at Open (err=%v)", err)
	}
}

func TestDurableBaseMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, BaseInfo{Hash: 10, Count: 5}, quick())
	if err := s.AppendPublish(0, testEvent(1, 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, BaseInfo{Hash: 11, Count: 5}, quick()); err == nil {
		t.Fatal("open with mismatched base hash succeeded")
	}
	if _, _, err := Open(dir, BaseInfo{Hash: 10, Count: 6}, quick()); err == nil {
		t.Fatal("open with mismatched base count succeeded")
	}
}

func TestDurableCorruptNonLastJournalIsFatal(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 4, Count: 1}
	s, _ := mustOpen(t, dir, base, quick())
	for i := int64(0); i < 3; i++ {
		if err := s.AppendPublish(i, testEvent(1, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	// Rotate without committing a checkpoint: epochs 1 and 2 both replay.
	if err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPublish(3, testEvent(1, 0.6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in epoch 1. Only the journal being appended to at
	// the moment of a crash can be torn, so CRC damage in an earlier epoch
	// is refused rather than silently truncated.
	path := filepath.Join(dir, journalName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[journalHeaderLen+frameHeaderLen+4] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, base, quick()); err == nil {
		t.Fatal("open with corruption in a non-last journal succeeded")
	}
}

func TestDurableHashBaseSensitivity(t *testing.T) {
	subs := []workload.Subscription{testSub(1, 0.1, 0.9), testSub(2, 0.2, 0.8)}
	h := HashBase(subs)
	if h != HashBase(subs) {
		t.Fatal("HashBase not deterministic")
	}
	diffOwner := []workload.Subscription{testSub(1, 0.1, 0.9), testSub(3, 0.2, 0.8)}
	if HashBase(diffOwner) == h {
		t.Error("owner change not reflected in base hash")
	}
	diffRect := []workload.Subscription{testSub(1, 0.1, 0.9), testSub(2, 0.2, 0.81)}
	if HashBase(diffRect) == h {
		t.Error("rect change not reflected in base hash")
	}
}

func TestDurableGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, BaseInfo{Hash: 5, Count: 1}, quick())
	reg := telemetry.NewRegistry()
	s.Instrument(reg)

	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(seq int64) {
			done <- s.AppendPublish(seq, testEvent(1, 0.5))
		}(int64(i))
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 8; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("group commit deadlocked")
		}
	}
	snap := reg.Snapshot()
	appends := snap["durable"].Counters["journal_appends"]
	fsyncs := snap["durable"].Counters["journal_fsyncs"]
	if appends != 8 {
		t.Errorf("journal_appends = %d, want 8", appends)
	}
	if fsyncs < 1 || fsyncs > 8 {
		t.Errorf("journal_fsyncs = %d, want within [1,8]", fsyncs)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, st := mustOpen(t, dir, BaseInfo{Hash: 5, Count: 1}, quick())
	if len(st.Outstanding) != 8 {
		t.Errorf("recovered %d publishes, want 8", len(st.Outstanding))
	}
}

// TestDurableTornTailVsCheckpointRotation crashes with a torn append in
// the window between a checkpoint's journal rotation and its rename —
// while other appenders race the dying store. Recovery must see the
// rotation but not the checkpoint: both epochs replay contiguously, the
// torn frame truncates off the newest journal's tail, and every append
// that was acknowledged before the crash survives. Run under -race (the
// chaos targets do): the point is the locking between append, rotation
// and the crash injector, not just the disk layout.
func TestDurableTornTailVsCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	base := BaseInfo{Hash: 7, Count: 1}
	opts := quick()
	// Appends 1-3 land in epoch 1; the rotation happens; appends 4-7 land
	// in epoch 2; the 8th is torn mid-frame, killing the store before
	// CommitCheckpoint can rename the checkpoint into place.
	opts.Crash = faults.NewCrashInjector(faults.CrashPlan{AtAppend: 8, Point: faults.CrashTornAppend})
	s, _ := mustOpen(t, dir, base, opts)
	var mu sync.Mutex
	var acked []int64
	for seq := int64(0); seq < 3; seq++ {
		if err := s.AppendPublish(seq, testEvent(1, 0.1)); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, seq)
	}
	if err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Two appenders race each other and the pending checkpoint commit.
	// Appends serialize under the store lock, so exactly four more records
	// land before the torn one kills the store; which seqs land is the
	// race. Landing is not acknowledgement: one goroutine's record can land
	// and the other's torn append kill the store before the first one's
	// sync runs, and that sync then correctly returns the crash. The store
	// promises "acknowledged ⇒ recovered", never "written ⇒ acknowledged",
	// so the check is on the acknowledged seqs, not on their count alone.
	var wg sync.WaitGroup
	var dyingCount atomic.Int64
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seqBase int64) {
			defer wg.Done()
			for i := int64(0); i < 6; i++ {
				switch err := s.AppendPublish(seqBase+i, testEvent(1, 0.2)); err {
				case nil:
					mu.Lock()
					acked = append(acked, seqBase+i)
					mu.Unlock()
				case faults.ErrCrashed:
					dyingCount.Add(1)
				case ErrAlreadyCrashed:
				default:
					t.Errorf("append: %v", err)
				}
			}
		}(100 * int64(g+1))
	}
	wg.Wait()
	if !s.Crashed() {
		t.Fatal("store not dead after torn append")
	}
	ok, dying := int64(len(acked)-3), dyingCount.Load()
	if ok+dying != 5 {
		t.Fatalf("%d concurrent appends acknowledged and %d returned the crash itself, want 5 in all (the rest were refused)", ok, dying)
	}
	if ok < 3 {
		t.Fatalf("%d concurrent appends acknowledged, want at least 3", ok)
	}
	// The crash fired between the rotation and the rename: the commit must
	// refuse rather than install a checkpoint the journals contradict.
	if err := s.CommitCheckpoint(&Checkpoint{NextSeq: 3, NextID: 1}); err != faults.ErrCrashed {
		t.Fatalf("post-crash commit returned %v, want ErrCrashed", err)
	}
	s.Close()

	s2, st := mustOpen(t, dir, base, quick())
	defer s2.Close()
	if st == nil {
		t.Fatal("no state recovered")
	}
	if st.Stats.CheckpointLoaded {
		t.Error("uncommitted checkpoint was loaded")
	}
	if st.Stats.JournalsReplayed != 2 {
		t.Errorf("JournalsReplayed = %d, want 2 (rotation survived the crash)", st.Stats.JournalsReplayed)
	}
	if st.Stats.TornTruncations != 1 || st.Stats.TornTailBytes == 0 {
		t.Errorf("torn stats = %+v, want one truncation with bytes > 0", st.Stats)
	}
	// 3 acknowledged in epoch 1 + 4 landed in epoch 2; the torn record is
	// gone, and every acknowledged append is among the survivors.
	if len(st.Outstanding) != 7 {
		t.Errorf("recovered %d publishes, want 7: %+v", len(st.Outstanding), st.Outstanding)
	}
	recovered := make(map[int64]bool, len(st.Outstanding))
	for _, p := range st.Outstanding {
		recovered[p.Seq] = true
	}
	for _, seq := range acked {
		if !recovered[seq] {
			t.Errorf("acknowledged seq %d not recovered: %+v", seq, st.Outstanding)
		}
	}
}
