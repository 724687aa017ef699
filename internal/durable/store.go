package durable

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("durable: store closed")

// ErrAlreadyCrashed is returned, wrapping faults.ErrCrashed, by an append
// refused because an injected crash fired before it began: none of it
// reached the journal. The append the crash fired at returns
// faults.ErrCrashed itself, and with CrashAfterAppend its record survives.
var ErrAlreadyCrashed = fmt.Errorf("%w: store already dead", faults.ErrCrashed)

// Options tunes a Store. The zero value takes the defaults.
type Options struct {
	// CheckpointRecords triggers an automatic checkpoint once this many
	// records have been appended to the current journal epoch. 0 means the
	// default (4096); negative disables record-count checkpoints.
	CheckpointRecords int64
	// CheckpointInterval is the broker's checkpoint ticker period. 0 means
	// the default (1s); negative disables timed checkpoints.
	CheckpointInterval time.Duration
	// Crash arms deterministic crash-point injection for chaos tests.
	Crash *faults.CrashInjector
	// Tap, when set, observes the store's record stream for replication
	// and gates durability barriers on the replica's acknowledgement. See
	// the Tap interface for the exact hook points and locking contract.
	Tap Tap
}

func (o Options) withDefaults() Options {
	if o.CheckpointRecords == 0 {
		o.CheckpointRecords = 4096
	}
	if o.CheckpointInterval == 0 {
		o.CheckpointInterval = time.Second
	}
	return o
}

// RecoveryStats describes what one Open had to do to rebuild state.
type RecoveryStats struct {
	CheckpointLoaded bool
	JournalsReplayed int
	RecordsReplayed  int
	TornTruncations  int
	TornTailBytes    int64
	Outstanding      int
	Duration         time.Duration
}

// State is the recovered broker state handed back by Open when the
// directory held a previous incarnation. Nil on a fresh directory.
type State struct {
	Epoch       int64
	NextSeq     int64
	NextID      int64
	RemovedBase []int64 // base subscription ids removed before the crash
	Subs        []SubRecord
	Windows     []WindowState // checkpointed dedup windows
	Acks        []AckRecord   // journal-tail acks, one per node, in append order
	Counters    map[string]int64
	Outstanding []PublishRecord // journal-tail publishes, ascending seq
	Stats       RecoveryStats
}

// Store is the durable backend of one broker. Appends are buffered and
// group-committed: any goroutine may append concurrently; a publish append
// blocks on a sync barrier that one flush+fsync satisfies for every record
// written before it. Churn and ack records are buffered and ride the next
// barrier (the broker issues one per churn batch, before it swaps the
// decision snapshot, so replay order equals swap order). An event's
// delivery acks are one record, however many copies it had.
//
// Simulated-crash contract: the injected crash points flush everything
// appended before the dying operation to the OS, so a record whose append
// returned nil is always visible to the next incarnation. This makes the
// chaos-test oracle exact; a real power loss would additionally need the
// ack records fsynced, which group commit amortises the same way.
type Store struct {
	dir   string
	base  BaseInfo
	opts  Options
	crash *faults.CrashInjector
	tap   Tap
	rec   RecoveryStats

	mu       sync.Mutex // guards the journal file, writer and counts
	f        *os.File
	bw       *bufio.Writer
	epoch    int64
	writeSeq int64 // records appended (ever); sync barrier tickets
	appended int64 // records appended since the last checkpoint
	closed   bool
	frameHdr [frameHeaderLen]byte // scratch for the frame being written

	syncMu sync.Mutex // serialises fsync; guards synced
	synced int64      // highest ticket known flushed+fsynced

	ctr struct {
		appends     *telemetry.Counter
		appendBytes *telemetry.Counter
		fsyncs      *telemetry.Counter
		checkpoints *telemetry.Counter
		torn        *telemetry.Counter
		tornBytes   *telemetry.Counter
		replayed    *telemetry.Counter
		outstanding *telemetry.Counter
		epochGauge  *telemetry.Gauge
	}
}

// Open creates or recovers the store in dir. base must describe the
// engine's initial subscription population; a directory written against a
// different base is refused. The returned State is nil when the directory
// is fresh, and otherwise holds everything needed to rebuild the broker.
func Open(dir string, base BaseInfo, opts Options) (*Store, *State, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	// A stranded temp file is a checkpoint that was never installed: the
	// previous checkpoint (if any) is still authoritative.
	os.Remove(filepath.Join(dir, ckptTmpName))

	cp, cpEpoch, err := loadCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	epochs, err := listJournals(dir)
	if err != nil {
		return nil, nil, err
	}

	s := &Store{dir: dir, base: base, opts: opts, crash: opts.Crash, tap: opts.Tap}

	if cp == nil && len(epochs) == 0 {
		if err := s.openJournal(1, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, true); err != nil {
			return nil, nil, err
		}
		return s, nil, nil
	}

	st := &State{NextID: base.Count, Counters: map[string]int64{}}
	startEpoch := int64(1)
	churned := map[int64]SubRecord{}
	removed := map[int64]bool{}
	if cp != nil {
		st.Stats.CheckpointLoaded = true
		startEpoch = cpEpoch
		st.NextSeq = cp.NextSeq
		st.NextID = cp.NextID
		st.Windows = cp.Windows
		st.Counters = cp.Counters
		for _, id := range cp.RemovedBase {
			removed[id] = true
		}
		for _, r := range cp.Subs {
			churned[r.ID] = r
		}
	}

	// The journals covering [startEpoch, last] must exist contiguously.
	tail := epochsFrom(epochs, startEpoch)
	if len(tail) == 0 || tail[0] != startEpoch {
		return nil, nil, fmt.Errorf("durable: journal epoch %d missing (have %v)", startEpoch, epochs)
	}
	for i := 1; i < len(tail); i++ {
		if tail[i] != tail[i-1]+1 {
			return nil, nil, fmt.Errorf("durable: journal gap between epochs %d and %d", tail[i-1], tail[i])
		}
	}

	outstanding := map[int64]PublishRecord{}
	for i, epoch := range tail {
		last := i == len(tail)-1
		n, torn, err := s.replayJournal(epoch, last, func(r record) {
			switch r.kind {
			case kindSubscribe:
				if r.sub.ID >= base.Count { // base ids are never re-subscribed
					churned[r.sub.ID] = r.sub
				}
				if r.sub.ID >= st.NextID {
					st.NextID = r.sub.ID + 1
				}
			case kindUnsubscribe:
				if r.unsub < base.Count {
					removed[r.unsub] = true
				} else {
					delete(churned, r.unsub)
				}
			case kindPublish:
				outstanding[r.pub.Seq] = r.pub
				if r.pub.Seq >= st.NextSeq {
					st.NextSeq = r.pub.Seq + 1
				}
			case kindAck, kindAcks:
				for _, n := range r.ackNodes {
					st.Acks = append(st.Acks, AckRecord{Node: n, Seq: r.ackSeq})
				}
			}
		})
		if err != nil {
			return nil, nil, err
		}
		st.Stats.JournalsReplayed++
		st.Stats.RecordsReplayed += n
		if torn > 0 {
			st.Stats.TornTruncations++
			st.Stats.TornTailBytes += torn
		}
	}

	// Stale journals below the checkpoint epoch (a crash can land between
	// checkpoint install and old-journal deletion).
	for _, epoch := range epochs {
		if epoch < startEpoch {
			os.Remove(filepath.Join(dir, journalName(epoch)))
		}
	}

	for id := range removed {
		st.RemovedBase = append(st.RemovedBase, id)
	}
	sort.Slice(st.RemovedBase, func(i, j int) bool { return st.RemovedBase[i] < st.RemovedBase[j] })
	for _, r := range churned {
		st.Subs = append(st.Subs, r)
	}
	sort.Slice(st.Subs, func(i, j int) bool { return st.Subs[i].ID < st.Subs[j].ID })
	for _, p := range outstanding {
		st.Outstanding = append(st.Outstanding, p)
	}
	sort.Slice(st.Outstanding, func(i, j int) bool { return st.Outstanding[i].Seq < st.Outstanding[j].Seq })
	st.Stats.Outstanding = len(st.Outstanding)

	// Resume appending to the last journal (already truncated past any torn
	// tail by replayJournal).
	lastEpoch := tail[len(tail)-1]
	if err := s.openJournal(lastEpoch, os.O_WRONLY|os.O_APPEND, false); err != nil {
		return nil, nil, err
	}
	st.Epoch = lastEpoch
	st.Stats.Duration = time.Since(start)
	s.rec = st.Stats
	return s, st, nil
}

// openJournal opens (and with writeHeader, initialises) the journal for
// epoch and installs it as the append target.
func (s *Store) openJournal(epoch int64, flags int, writeHeader bool) error {
	f, err := os.OpenFile(filepath.Join(s.dir, journalName(epoch)), flags, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if writeHeader {
		if _, err := f.Write(encodeJournalHeader(epoch, s.base)); err != nil {
			f.Close()
			return fmt.Errorf("durable: journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: journal header: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			f.Close()
			return err
		}
	}
	s.f = f
	s.bw = bufio.NewWriterSize(f, 64<<10)
	s.epoch = epoch
	s.ctr.epochGauge.Set(epoch)
	return nil
}

// replayJournal applies every intact record of one journal. A torn or
// corrupt tail of the last journal is truncated away and its byte count
// returned.
func (s *Store) replayJournal(epoch int64, last bool, apply func(record)) (int, int64, error) {
	var scratch []byte
	n, end, size, err := readJournal(s.dir, epoch, s.base, last, &scratch, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		apply(rec)
		return nil
	})
	if err != nil || end == size {
		return n, 0, err
	}
	if err := os.Truncate(filepath.Join(s.dir, journalName(epoch)), end); err != nil {
		return 0, 0, fmt.Errorf("durable: truncating torn tail: %w", err)
	}
	return n, size - end, nil
}

// readJournal passes the payload of every intact record of journal epoch
// under dir to fn, in append order; the payload is reused between calls.
// It returns the records read, the offset just past the last intact frame
// and the file's size. Those differ only when the tail is torn, which
// ends the read of the last journal; the same damage in an earlier journal
// is a hard error, since only the file being appended to at the moment of
// a crash can be torn.
func readJournal(dir string, epoch int64, base BaseInfo, last bool, scratch *[]byte, fn func([]byte) error) (int, int64, int64, error) {
	f, err := os.Open(filepath.Join(dir, journalName(epoch)))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("durable: %w", err)
	}
	defer f.Close()

	hdr := make([]byte, journalHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return 0, 0, 0, fmt.Errorf("durable: journal %d header: %w", epoch, err)
	}
	gotEpoch, gotBase, err := decodeJournalHeader(hdr)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("durable: journal %d: %w", epoch, err)
	}
	if gotEpoch != epoch {
		return 0, 0, 0, fmt.Errorf("durable: journal file %d claims epoch %d", epoch, gotEpoch)
	}
	if gotBase != base {
		return 0, 0, 0, fmt.Errorf("durable: journal %d written against a different subscription base (hash %x/count %d, want %x/%d)",
			epoch, gotBase.Hash, gotBase.Count, base.Hash, base.Count)
	}

	br := bufio.NewReaderSize(f, 64<<10)
	off := int64(journalHeaderLen)
	records := 0
	for {
		payload, frameLen, err := readFrame(br, scratch)
		if err == io.EOF {
			return records, off, off, nil
		}
		if err != nil {
			if !last {
				return 0, 0, 0, fmt.Errorf("durable: journal %d corrupt mid-file at offset %d: %w", epoch, off, err)
			}
			info, serr := f.Stat()
			if serr != nil {
				return 0, 0, 0, fmt.Errorf("durable: %w", serr)
			}
			return records, off, info.Size(), nil
		}
		if err := fn(payload); err != nil {
			return 0, 0, 0, fmt.Errorf("durable: journal %d record at offset %d: %w", epoch, off, err)
		}
		records++
		off += int64(frameLen)
	}
}

// readFrame reads one frame from br. io.EOF means a clean end; any other
// error means a torn or corrupt frame.
func readFrame(br *bufio.Reader, scratch *[]byte) ([]byte, int, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("torn frame header: %w", err)
	}
	n := int(uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24)
	sum := uint32(hdr[4]) | uint32(hdr[5])<<8 | uint32(hdr[6])<<16 | uint32(hdr[7])<<24
	if n <= 0 || n > maxPayloadLen {
		return nil, 0, fmt.Errorf("frame length %d out of range", n)
	}
	if cap(*scratch) < n {
		*scratch = make([]byte, n)
	}
	payload := (*scratch)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, 0, fmt.Errorf("torn frame payload: %w", err)
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, errors.New("frame CRC mismatch")
	}
	return payload, frameHeaderLen + n, nil
}

func loadCheckpoint(dir string) (*Checkpoint, int64, error) {
	b, err := os.ReadFile(filepath.Join(dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("durable: %w", err)
	}
	cp, epoch, _, err := decodeCheckpoint(b)
	if err != nil {
		return nil, 0, err
	}
	return cp, epoch, nil
}

func listJournals(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var out []int64
	for _, e := range ents {
		var epoch int64
		if _, err := fmt.Sscanf(e.Name(), "journal.%d.log", &epoch); err == nil && e.Name() == journalName(epoch) {
			out = append(out, epoch)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func epochsFrom(epochs []int64, from int64) []int64 {
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i] >= from })
	return epochs[i:]
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	return nil
}

// Instrument registers the store's metrics under scope "durable" and seeds
// the recovery results of the Open that produced this store, so one
// registry tells the whole story.
func (s *Store) Instrument(reg *telemetry.Registry) {
	if s == nil || reg == nil {
		return
	}
	sc := reg.Scope("durable")
	s.ctr.appends = sc.Counter("journal_appends")
	s.ctr.appendBytes = sc.Counter("journal_append_bytes")
	s.ctr.fsyncs = sc.Counter("journal_fsyncs")
	s.ctr.checkpoints = sc.Counter("checkpoints")
	s.ctr.torn = sc.Counter("torn_truncations")
	s.ctr.tornBytes = sc.Counter("torn_tail_bytes")
	s.ctr.replayed = sc.Counter("replayed_records")
	s.ctr.outstanding = sc.Counter("outstanding_replayed")
	s.ctr.epochGauge = sc.Gauge("journal_epoch")

	s.ctr.torn.Add(int64(s.rec.TornTruncations))
	s.ctr.tornBytes.Add(s.rec.TornTailBytes)
	s.ctr.replayed.Add(int64(s.rec.RecordsReplayed))
	s.ctr.outstanding.Add(int64(s.rec.Outstanding))
	s.mu.Lock()
	s.ctr.epochGauge.Set(s.epoch)
	s.mu.Unlock()
}

// Recovery returns what the Open that produced this store had to replay.
func (s *Store) Recovery() RecoveryStats { return s.rec }

// Options returns the effective (defaulted) options.
func (s *Store) Options() Options { return s.opts }

// Epoch returns the current journal epoch.
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AppendedSinceCheckpoint returns the records appended to the current
// journal epoch — the broker's trigger for record-count checkpoints.
func (s *Store) AppendedSinceCheckpoint() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Crashed reports whether an injected crash point has fired.
func (s *Store) Crashed() bool { return s.crash.Dead() }

// Dir returns the directory the store persists into.
func (s *Store) Dir() string { return s.dir }

// Base returns the subscription-base fingerprint the store was opened
// against — a replica must be seeded with the same base.
func (s *Store) Base() BaseInfo { return s.base }

// append frames and buffers one record, returning the barrier ticket that
// a Sync/syncTo must reach to make it durable. Crash points fire here.
func (s *Store) append(payload []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.f == nil {
		return 0, ErrNoJournal
	}
	dead := s.crash.Dead()
	switch s.crash.OnAppend() {
	case faults.CrashBeforeAppend:
		// The dying write never happens; earlier buffered records reach
		// the OS (see the simulated-crash contract).
		s.bw.Flush()
		if dead {
			return 0, ErrAlreadyCrashed
		}
		return 0, faults.ErrCrashed
	case faults.CrashTornAppend:
		writeFrame(s.bw, &s.frameHdr, payload, len(payload)/2)
		s.bw.Flush()
		s.f.Sync()
		return 0, faults.ErrCrashed
	case faults.CrashAfterAppend:
		writeFrame(s.bw, &s.frameHdr, payload, len(payload))
		s.bw.Flush()
		s.f.Sync()
		return 0, faults.ErrCrashed
	}
	if err := writeFrame(s.bw, &s.frameHdr, payload, len(payload)); err != nil {
		return 0, fmt.Errorf("durable: append: %w", err)
	}
	s.writeSeq++
	s.appended++
	s.ctr.appends.Inc()
	s.ctr.appendBytes.Add(int64(frameHeaderLen + len(payload)))
	if s.tap != nil {
		// Enqueue-only (the tap must not block): crashed appends never get
		// here, so a record that ships always returned its ticket locally.
		s.tap.AppendRecord(s.writeSeq, payload)
	}
	return s.writeSeq, nil
}

// syncTo is the group-commit barrier: it returns once every record with a
// ticket ≤ the argument is flushed and fsynced — and, when a replication
// tap is installed, acknowledged by the replica (or the tap decided to
// proceed without one). Concurrent callers coalesce — one fsync satisfies
// all barriers issued before it.
func (s *Store) syncTo(ticket int64) error {
	if err := s.localSyncTo(ticket); err != nil {
		return err
	}
	// Outside syncMu: the remote round-trip must not serialise local group
	// commit, and the tap coalesces concurrent waiters itself. Always
	// consulted (even when an earlier barrier already covered the local
	// fsync) so a ticket is never acknowledged before the replica has it.
	if s.tap != nil {
		return s.tap.Barrier(ticket)
	}
	return nil
}

// localSyncTo is the local half of the barrier: flush + fsync.
func (s *Store) localSyncTo(ticket int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.synced >= ticket {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if s.crash.Dead() {
		s.mu.Unlock()
		return faults.ErrCrashed
	}
	if s.f == nil {
		s.mu.Unlock()
		return nil
	}
	n := s.writeSeq
	err := s.bw.Flush()
	f := s.f
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	// f cannot rotate out from under us: rotation takes syncMu first.
	if err := f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	s.synced = n
	s.ctr.fsyncs.Inc()
	return nil
}

// Sync is a barrier to the latest append.
func (s *Store) Sync() error {
	s.mu.Lock()
	t := s.writeSeq
	s.mu.Unlock()
	return s.syncTo(t)
}

// AppendSubscribe journals a churn subscription. Buffered: the broker
// issues one Sync per churn batch before swapping the decision snapshot.
func (s *Store) AppendSubscribe(r SubRecord) error {
	_, err := s.append(encodeSubRecord(nil, r))
	return err
}

// AppendUnsubscribe journals a churn removal (buffered, like subscribes).
func (s *Store) AppendUnsubscribe(id int64) error {
	_, err := s.append(encodeUnsubRecord(nil, id))
	return err
}

// AppendPublish journals one publication and blocks until it is durable
// (group commit). The broker acknowledges the publish only after this
// returns nil.
func (s *Store) AppendPublish(seq int64, ev workload.Event) error {
	t, err := s.append(encodePublishRecord(nil, PublishRecord{Seq: seq, Ev: ev}))
	if err != nil {
		return err
	}
	return s.syncTo(t)
}

// AppendPublishes buffers a batch of publish records without a barrier —
// used by checkpoints to carry in-flight publishes into the new epoch;
// CommitCheckpoint's own Sync makes them durable before old journals die.
func (s *Store) AppendPublishes(recs []PublishRecord) error {
	for _, r := range recs {
		if _, err := s.append(encodePublishRecord(nil, r)); err != nil {
			return err
		}
	}
	return nil
}

// AppendAcks journals the delivery admissions of event seq at nodes as one
// record and returns its barrier ticket (buffered; rides the next fsync
// barrier locally). A set too large for one frame is split across
// records, and the last ticket covers them all; an empty set appends
// nothing. With a replication tap installed the copies may only be
// observed once AckBarrier has covered the ticket: the record that
// suppresses their replay must exist on both sides, or a promoted
// follower would deliver them again.
func (s *Store) AppendAcks(seq int64, nodes []topology.NodeID) (int64, error) {
	var ticket int64
	for len(nodes) > 0 {
		k := min(len(nodes), maxAckNodes)
		t, err := s.append(encodeAcksRecord(seq, nodes[:k]))
		if err != nil {
			if ticket != 0 && errors.Is(err, ErrAlreadyCrashed) {
				// Part of the set is journaled: its fate is as uncertain
				// as at the append the crash fired at.
				err = faults.ErrCrashed
			}
			return 0, err
		}
		ticket, nodes = t, nodes[k:]
	}
	return ticket, nil
}

// AckBarrier waits until the replica has acknowledged every record with
// ticket ≤ the argument; without a tap it returns nil at once. One call
// covers every record appended before it, so a broker waits once per
// event.
func (s *Store) AckBarrier(ticket int64) error {
	if s.tap != nil {
		return s.tap.Barrier(ticket)
	}
	return nil
}

// BeginCheckpoint rotates to a fresh journal epoch. The caller then
// re-appends any in-flight publish records and captures the checkpoint
// state, so that everything the new epoch's checkpoint does not cover is
// in the new epoch's journal.
func (s *Store) BeginCheckpoint() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rotateLocked(s.epoch + 1)
}

// rotateLocked syncs the current journal and opens a fresh one for epoch;
// an epoch at or below the current one is ignored. The caller holds
// syncMu and mu.
func (s *Store) rotateLocked(epoch int64) error {
	if s.closed {
		return ErrClosed
	}
	if s.crash.Dead() {
		return faults.ErrCrashed
	}
	if s.f == nil {
		return ErrNoJournal
	}
	if epoch <= s.epoch {
		return nil
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("durable: flush: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync: %w", err)
	}
	s.synced = s.writeSeq
	old := s.f
	if err := s.openJournal(epoch, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, true); err != nil {
		return err // openJournal leaves the old epoch installed on failure
	}
	old.Close()
	s.appended = 0
	if s.tap != nil {
		// Under s.mu, so the rotation marker sits between the records of
		// the old and new epochs in the shipped stream.
		s.tap.Rotate(s.epoch)
	}
	return nil
}

// CommitCheckpoint installs cp for the current epoch and deletes the
// journals of previous epochs.
func (s *Store) CommitCheckpoint(cp *Checkpoint) error {
	if s.crash.Dead() {
		return faults.ErrCrashed
	}
	// Everything the checkpoint epoch's journal holds (carried-forward
	// publishes, churn since rotation) must be durable before the previous
	// epochs are deleted.
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	epoch := s.epoch
	s.mu.Unlock()

	encoded := encodeCheckpoint(cp, epoch, s.base)
	if err := s.installCheckpoint(epoch, encoded); err != nil {
		return err
	}
	s.ctr.checkpoints.Inc()
	if s.tap != nil {
		// After install so a shipped checkpoint is always one the leader
		// actually has; any records appended meanwhile belong to the
		// current epoch and ride ahead or behind harmlessly.
		s.tap.Checkpoint(epoch, encoded)
	}
	return nil
}

// installCheckpoint installs the encoded checkpoint of epoch and deletes
// the journals it covers. The mid-checkpoint crash point fires between
// the temp write and the rename, stranding the temp file.
func (s *Store) installCheckpoint(epoch int64, raw []byte) error {
	if err := installFile(s.dir, ckptTmpName, ckptName, raw, s.crash); err != nil {
		return err
	}
	for e := epoch - 1; e >= 1; e-- {
		if err := os.Remove(filepath.Join(s.dir, journalName(e))); err != nil {
			break // already gone: previous checkpoint cleaned further back
		}
	}
	return nil
}

// installFile atomically replaces dir/name with b: temp write, fsync,
// rename, directory fsync. crash, when set, may fire its checkpoint crash
// point between the temp write and the rename.
func installFile(dir, tmpName, name string, b []byte, crash *faults.CrashInjector) error {
	tmp := filepath.Join(dir, tmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if crash.OnCheckpoint() {
		return faults.ErrCrashed
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("durable: installing %s: %w", name, err)
	}
	return syncDir(dir)
}

// Close flushes and closes the journal. After a simulated crash the
// buffered state is already on disk exactly as the dying process left it,
// so Close only releases the file handle.
func (s *Store) Close() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	if s.crash.Dead() {
		s.f.Close()
		return nil
	}
	err := s.bw.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: close: %w", err)
	}
	return nil
}
