package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/topology"
)

// tapOp is one hook call a leader's Tap saw: a record, a rotation
// (epoch only) or an installed checkpoint (epoch and file).
type tapOp struct {
	rec   []byte
	epoch int64
	ckpt  []byte
}

// recordingTap keeps the stream a leader ships, in order.
type recordingTap struct {
	mu  sync.Mutex
	ops []tapOp
}

func (r *recordingTap) add(op tapOp) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *recordingTap) AppendRecord(_ int64, payload []byte) { r.add(tapOp{rec: payload}) }
func (r *recordingTap) Rotate(epoch int64)                   { r.add(tapOp{epoch: epoch}) }
func (r *recordingTap) Checkpoint(epoch int64, raw []byte)   { r.add(tapOp{epoch: epoch, ckpt: raw}) }
func (r *recordingTap) Barrier(int64) error                  { return nil }

// sameFiles fails unless dirs a and b hold the same journals and
// checkpoint, byte for byte.
func sameFiles(t *testing.T, a, b string) {
	t.Helper()
	names := func(dir string) []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			if e.Name() == ckptName || strings.HasPrefix(e.Name(), "journal.") {
				out = append(out, e.Name())
			}
		}
		return out
	}
	na, nb := names(a), names(b)
	if !reflect.DeepEqual(na, nb) {
		t.Fatalf("file sets differ: %v vs %v", na, nb)
	}
	for _, n := range na {
		ba, err := os.ReadFile(filepath.Join(a, n))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(b, n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("%s differs: %d bytes vs %d", n, len(ba), len(bb))
		}
	}
}

// TestMirrorMatchesLeader replays a leader's shipped stream into a mirror
// Store, as a follower does, and checks that both directories hold the
// same bytes before either is closed and recover to the same State.
func TestMirrorMatchesLeader(t *testing.T) {
	base := BaseInfo{Hash: 21, Count: 4}
	dirL, dirM := t.TempDir(), t.TempDir()
	tap := &recordingTap{}
	opts := quick()
	opts.Tap = tap
	l, _ := mustOpen(t, dirL, base, opts)
	m, err := OpenMirror(dirM, base, quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendRaw(encodeUnsubRecord(nil, 1)); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("AppendRaw before Reset = %v, want ErrNoJournal", err)
	}
	if err := m.Rotate(2); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("Rotate before Reset = %v, want ErrNoJournal", err)
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	acks := func(seq int64, nodes ...topology.NodeID) {
		t.Helper()
		_, err := l.AppendAcks(seq, nodes)
		must(err)
	}
	must(l.AppendSubscribe(SubRecord{ID: 4, Owner: 3, Rect: testRect(0, 1)}))
	must(l.AppendPublish(0, testEvent(1, 0.5)))
	acks(0, 3, 7)
	must(l.AppendUnsubscribe(1))
	must(l.BeginCheckpoint())
	must(l.AppendPublishes([]PublishRecord{{Seq: 0, Ev: testEvent(1, 0.5)}}))
	must(l.CommitCheckpoint(&Checkpoint{
		NextSeq:     1,
		NextID:      5,
		RemovedBase: []int64{1},
		Subs:        []SubRecord{{ID: 4, Owner: 3, Rect: testRect(0, 1)}},
		Windows:     []WindowState{{Node: 3, Size: 8, Max: 0, Seqs: []int64{0}}},
		Counters:    map[string]int64{"published": 1},
	}))
	must(l.AppendPublish(1, testEvent(2, 0.9)))
	acks(1, 3)
	must(l.AppendSubscribe(SubRecord{ID: 5, Owner: 7, Rect: testRect(0.2, 0.4)}))
	must(l.Sync())

	// The leader attached its standby before any traffic: catch-up ships
	// an empty journal 1 and the live stream carries everything else.
	must(m.Reset(1, nil))
	records := int64(0)
	for _, op := range tap.ops {
		switch {
		case op.rec != nil:
			must(m.AppendRaw(op.rec))
			records++
		case op.ckpt != nil:
			must(m.InstallCheckpoint(op.epoch, op.ckpt))
		default:
			must(m.Rotate(op.epoch))
			must(m.Rotate(op.epoch)) // a catch-up duplicate: ignored
		}
	}
	must(m.Sync())
	if got := m.Applied(); got != records {
		t.Errorf("Applied = %d, want %d", got, records)
	}
	if m.Epoch() != l.Epoch() {
		t.Errorf("mirror epoch %d, leader %d", m.Epoch(), l.Epoch())
	}
	sameFiles(t, dirL, dirM)

	// A reconnect resyncs from the leader's disk, as the leader's
	// catch-up does. Reset restarts the sync watermark with the record
	// count: a stale one would let Sync skip the new journal's fsync.
	ckpt, _, err := l.CatchupSnapshot()
	must(err)
	from, _, err := DecodeCheckpointMeta(ckpt)
	must(err)
	must(m.Reset(from, ckpt))
	cur := from
	must(IterateRecords(dirL, from, base, func(epoch int64, payload []byte) error {
		if epoch != cur {
			cur = epoch
			if err := m.Rotate(epoch); err != nil {
				return err
			}
		}
		return m.AppendRaw(payload)
	}))
	must(m.Sync())
	if got := m.Applied(); got != 4 {
		t.Errorf("Applied after resync = %d, want the 4 records of epoch %d", got, from)
	}
	sameFiles(t, dirL, dirM)

	must(l.Close())
	must(m.Close())
	recovered := func(dir string) *State {
		s, st := mustOpen(t, dir, base, quick())
		must(s.Close())
		st.Stats.Duration = 0
		return st
	}
	if stL, stM := recovered(dirL), recovered(dirM); !reflect.DeepEqual(stL, stM) {
		t.Fatalf("recovered states differ:\nleader %+v\nmirror %+v", stL, stM)
	}
}

// TestMirrorRefusesForeignCheckpoints: a mirror never Reset closes
// cleanly, and a shipped checkpoint with the wrong epoch or base is
// refused before anything is installed.
func TestMirrorRefusesForeignCheckpoints(t *testing.T) {
	base := BaseInfo{Hash: 21, Count: 4}
	idle, err := OpenMirror(t.TempDir(), base, quick())
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatalf("Close before Reset = %v", err)
	}

	dir := t.TempDir()
	m, err := OpenMirror(dir, base, quick())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cp := &Checkpoint{NextSeq: 3, Counters: map[string]int64{}}
	if err := m.Reset(3, encodeCheckpoint(cp, 4, base)); err == nil {
		t.Error("Reset accepted a checkpoint past its journal epoch")
	}
	if err := m.Reset(2, encodeCheckpoint(cp, 2, BaseInfo{Hash: 22, Count: 4})); err == nil {
		t.Error("Reset accepted a checkpoint of another base")
	}
	if err := m.Reset(2, encodeCheckpoint(cp, 2, base)); err != nil {
		t.Fatal(err)
	}
	if err := m.InstallCheckpoint(3, encodeCheckpoint(cp, 2, base)); err == nil {
		t.Error("InstallCheckpoint accepted a checkpoint claiming another epoch")
	}
	if err := m.InstallCheckpoint(2, encodeCheckpoint(cp, 2, BaseInfo{Hash: 22, Count: 4})); err == nil {
		t.Error("InstallCheckpoint accepted a checkpoint of another base")
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTmpName)); !os.IsNotExist(err) {
		t.Errorf("a refused checkpoint left %s behind (err=%v)", ckptTmpName, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ckptName))
	if err != nil || !bytes.Equal(raw, encodeCheckpoint(cp, 2, base)) {
		t.Errorf("installed checkpoint changed by refused installs (err=%v)", err)
	}
}
