// Replication support: the record-stream tap a leader store feeds, the
// mirror methods a follower's Store applies that stream with, a
// streamable record iterator for catch-up, and the persisted fencing
// epoch.
//
// The division of labour with internal/replicate: this file knows the
// on-disk format (frames, journal headers, checkpoint files, the epoch
// file) and nothing about the network; the replicate package owns the
// protocol, buffering and failure detection and treats record payloads as
// opaque bytes.

package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faults"
)

// Tap observes a Store's record stream for replication. All hooks except
// Barrier are called with the store's internal locks held and must only
// enqueue — never block, and never call back into the store.
//
//   - AppendRecord fires once per successfully appended record, in ticket
//     order, with the raw journal payload (ownership transfers to the tap).
//   - Rotate fires when a checkpoint rotates the journal to a new epoch,
//     ordered against AppendRecord calls.
//   - Checkpoint fires after a checkpoint file is atomically installed,
//     with the full encoded file.
//   - Barrier blocks until every record with ticket ≤ idx is acknowledged
//     by the replica, the tap decides to proceed without one (replica
//     declared dead), or the leader is fenced (error). It is called
//     outside the store locks, after the local fsync, by publish barriers
//     and by AckBarrier, once per event's delivery-ack record.
type Tap interface {
	AppendRecord(idx int64, payload []byte)
	Rotate(journalEpoch int64)
	Checkpoint(journalEpoch int64, raw []byte)
	Barrier(idx int64) error
}

// CatchupSnapshot captures a consistent view of the store's on-disk state
// for a follower resync: the installed checkpoint file (nil when none has
// been committed) and the ticket of the last record guaranteed flushed to
// the journals at capture time. Records appended after the capture overlap
// the live stream; replay idempotence makes the duplicated suffix
// harmless.
func (s *Store) CatchupSnapshot() (ckptRaw []byte, lastIdx int64, err error) {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrClosed
	}
	if s.crash.Dead() {
		s.mu.Unlock()
		return nil, 0, faults.ErrCrashed
	}
	lastIdx = s.writeSeq
	ferr := s.bw.Flush()
	f := s.f
	s.mu.Unlock()
	if ferr != nil {
		return nil, 0, fmt.Errorf("durable: flush: %w", ferr)
	}
	if err := f.Sync(); err != nil {
		return nil, 0, fmt.Errorf("durable: fsync: %w", err)
	}
	s.synced = lastIdx
	ckptRaw, err = os.ReadFile(filepath.Join(s.dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, lastIdx, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	return ckptRaw, lastIdx, nil
}

// DecodeCheckpointMeta returns the journal epoch and base fingerprint
// stamped into an encoded checkpoint file, validating magic and CRC.
func DecodeCheckpointMeta(raw []byte) (epoch int64, base BaseInfo, err error) {
	_, epoch, base, err = decodeCheckpoint(raw)
	return epoch, base, err
}

// IterateRecords streams the raw payload of every journal record under
// dir, oldest epoch first, in append order — the catch-up source for a
// follower resync. fromEpoch skips journals below it (pass the checkpoint
// epoch; 0 streams everything present). A torn tail in the newest journal
// ends the stream cleanly (the live stream re-ships anything past it);
// corruption elsewhere is an error. The payload passed to fn is reused
// between calls — copy it to retain it.
func IterateRecords(dir string, fromEpoch int64, base BaseInfo, fn func(journalEpoch int64, payload []byte) error) error {
	epochs, err := listJournals(dir)
	if err != nil {
		return err
	}
	epochs = epochsFrom(epochs, fromEpoch)
	var scratch []byte
	for i, epoch := range epochs {
		last := i == len(epochs)-1
		if _, _, _, err := readJournal(dir, epoch, base, last, &scratch, func(payload []byte) error {
			return fn(epoch, payload)
		}); err != nil {
			return err
		}
	}
	return nil
}

// ---- fencing epoch ------------------------------------------------------

const (
	epochMagic   = "PSEPO1\x00\x00"
	epochName    = "epoch.bin"
	epochTmpName = "epoch.tmp"
)

// LoadEpoch reads the persisted replication fencing epoch from dir (0 when
// none was ever stored).
func LoadEpoch(dir string) (int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, epochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("durable: %w", err)
	}
	if len(b) != len(epochMagic)+12 || string(b[:8]) != epochMagic {
		return 0, errors.New("durable: bad epoch file")
	}
	term := int64(binary.LittleEndian.Uint64(b[8:]))
	if crc32.Checksum(b[8:16], castagnoli) != binary.LittleEndian.Uint32(b[16:]) {
		return 0, errors.New("durable: epoch file CRC mismatch")
	}
	return term, nil
}

// StoreEpoch durably persists the replication fencing epoch in dir
// (temp write, fsync, atomic rename, directory fsync). A follower must
// persist its new epoch before acting as leader: fencing only works if a
// restart cannot forget a promotion.
func StoreEpoch(dir string, term int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	b := make([]byte, 0, len(epochMagic)+12)
	b = append(b, epochMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(term))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[8:16], castagnoli))
	return installFile(dir, epochTmpName, epochName, b, nil)
}

// ---- mirror ------------------------------------------------------------

// ErrNoJournal is returned by a mirror's appends and rotations before a
// Reset established the journal position — the protocol always opens
// with a catch-up.
var ErrNoJournal = errors.New("durable: mirror has no journal (catch-up pending)")

// OpenMirror opens dir as the standby end of a replicated pair: a Store
// that writes a leader's shipped record stream into the same on-disk
// layout with the same code — AppendRaw is append, Rotate is the
// checkpoint rotation, InstallCheckpoint is the checkpoint installer.
// It has no journal until the leader's catch-up calls Reset, and any
// previous contents stay untouched until then. Promotion closes the
// mirror and runs ordinary recovery — broker.Open — over the directory,
// so failover reuses the crash-restart machinery the chaos suite proves
// out. opts.Tap is ignored: a mirror ships nothing.
func OpenMirror(dir string, base BaseInfo, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	opts.Tap = nil
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	os.Remove(filepath.Join(dir, ckptTmpName))
	os.Remove(filepath.Join(dir, epochTmpName))
	return &Store{dir: dir, base: base, opts: opts, crash: opts.Crash}, nil
}

// Reset wipes the store's journals and checkpoint and re-seeds them for a
// full resync: ckptRaw (the leader's checkpoint file, may be nil) is
// installed verbatim, with no crash point, and a fresh journal is opened
// at journalEpoch.
func (s *Store) Reset(journalEpoch int64, ckptRaw []byte) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.crash.Dead() {
		return faults.ErrCrashed
	}
	if s.f != nil {
		s.f.Close()
		s.f, s.bw = nil, nil
	}
	// Both counters restart: a synced left at its old value would let
	// the next Sync skip the flush and fsync of the new journal.
	s.writeSeq, s.synced, s.appended = 0, 0, 0
	epochs, err := listJournals(s.dir)
	if err != nil {
		return err
	}
	for _, e := range epochs {
		os.Remove(filepath.Join(s.dir, journalName(e)))
	}
	os.Remove(filepath.Join(s.dir, ckptName))
	if len(ckptRaw) > 0 {
		epoch, err := s.shippedEpoch(ckptRaw)
		if err != nil {
			return err
		}
		if epoch > journalEpoch {
			return fmt.Errorf("durable: shipped checkpoint epoch %d past journal epoch %d", epoch, journalEpoch)
		}
		if err := installFile(s.dir, ckptTmpName, ckptName, ckptRaw, nil); err != nil {
			return err
		}
	}
	return s.openJournal(journalEpoch, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, true)
}

// AppendRaw appends one shipped record payload (buffered; Sync is the
// durability barrier before acknowledging the leader). Crash points fire
// here as on any append.
func (s *Store) AppendRaw(payload []byte) error {
	_, err := s.append(payload)
	return err
}

// Rotate mirrors a leader checkpoint rotation. Rotations at or below the
// current epoch are duplicates from a catch-up overlap and are ignored.
func (s *Store) Rotate(epoch int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked(epoch)
}

// InstallCheckpoint mirrors a leader checkpoint commit: the shipped file
// is validated, the current journal synced, and the file installed by
// the installer CommitCheckpoint uses.
func (s *Store) InstallCheckpoint(epoch int64, raw []byte) error {
	if s.crash.Dead() {
		return faults.ErrCrashed
	}
	got, err := s.shippedEpoch(raw)
	if err != nil {
		return err
	}
	if got != epoch {
		return fmt.Errorf("durable: shipped checkpoint claims epoch %d, expected %d", got, epoch)
	}
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return s.installCheckpoint(epoch, raw)
}

// shippedEpoch validates a checkpoint file shipped by the leader against
// this store's base and returns the journal epoch it belongs to.
func (s *Store) shippedEpoch(raw []byte) (int64, error) {
	epoch, base, err := DecodeCheckpointMeta(raw)
	if err != nil {
		return 0, err
	}
	if base != s.base {
		return 0, fmt.Errorf("durable: shipped checkpoint base mismatch (%x/%d, want %x/%d)",
			base.Hash, base.Count, s.base.Hash, s.base.Count)
	}
	return epoch, nil
}

// Applied returns the records appended since Open or the last Reset — on
// a mirror, the records applied from the current resync's stream.
func (s *Store) Applied() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeSeq
}
