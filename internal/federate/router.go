package federate

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/faults"
	"repro/internal/replicate"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// SlotRef names one shard-local subscription slot. Slot ints are only
// meaningful relative to their shard — two shards freely hand out the
// same slot number — which is why the router hands out its own
// subscription ids.
type SlotRef struct {
	Shard int
	Slot  int
}

const (
	// dedupWindow is the size, in seqs, of each (node, tile) duplicate
	// suppression window (one bit per seq): the window over global seqs
	// and, on the unmapped-replay path, the one over local seqs. A
	// delivery more than dedupWindow seqs below the highest its window
	// admitted reads as a duplicate, so the window must exceed a shard's
	// failover replay (journaled-but-unacked tail plus deliveries in
	// flight), the reordering of its per-node fan-out, and the publishes
	// that take a global seq while another is on its way into the shard.
	// It is also how many half-accepted publishes each tile remembers.
	dedupWindow = 4096
	// mapWindow is the number of local seqs each shard's local→global
	// translation table remembers, in publications.
	mapWindow = 65536
)

// Config parameterises a Router.
type Config struct {
	// Tiles is the shard partition; shard i owns Tiles[i]. Required.
	Tiles Partition

	// Observer receives every federated delivery exactly once, with
	// Delivery.Seq rewritten to the router-global publication seq.
	// Called from the shards' fan-out workers, possibly for one node from
	// several at once; may be nil.
	Observer func(topology.NodeID, broker.Delivery)

	// Resolve, when non-nil, is asked for a replacement shard after a
	// retryable shard failure (fenced, crashed, closed). Returning nil
	// means "no replacement yet"; the router backs off and asks again.
	// Failover controllers that push the promoted broker via Attach
	// instead can leave this nil.
	Resolve func(shard int) broker.Shard

	// MaxRetries, RetryBackoff and RetryTimeout bound the per-shard
	// retry loop around retryable failures. Zero values mean 64 retries,
	// 2ms initial backoff (doubling, capped at 100ms), 10s deadline.
	MaxRetries   int
	RetryBackoff time.Duration
	RetryTimeout time.Duration
}

// Router routes the pub-sub surface over one broker.Shard per tile and
// merges the shards' delivery streams back into a single exactly-once
// stream. See the package comment for the protocol.
//
// Router implements transport.Backend, so a pubsub-server can serve a
// whole federation through one listener.
type Router struct {
	cfg   Config
	tiles Partition

	// shards[i] is tile i's current shard; swapped on failover via
	// Attach, read on every decide. Guarded by mu.
	mu      sync.RWMutex
	shards  []broker.Shard
	subs    map[int][]SlotRef
	nextSub int

	maps []*seqMap // per-shard local→global seq translation

	// dedup[n][i] is node n's duplicate suppression for tile i, and
	// half[i] tracks tile i's half-accepted publishes. See Feed.
	dedupMu sync.Mutex
	dedup   map[topology.NodeID][]tileDedup
	half    []halfAccepted

	gseq   atomic.Int64
	closed atomic.Bool
	stats  counters
}

var _ transport.Backend = (*Router)(nil)

// NewRouter builds a router over cfg.Tiles with no shards attached yet;
// call Attach (or AttachRemote) for each tile before publishing.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Tiles.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 64
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 2 * time.Millisecond
	}
	if cfg.RetryTimeout <= 0 {
		cfg.RetryTimeout = 10 * time.Second
	}
	r := &Router{
		cfg:    cfg,
		tiles:  append(Partition(nil), cfg.Tiles...),
		shards: make([]broker.Shard, len(cfg.Tiles)),
		subs:   make(map[int][]SlotRef),
		maps:   make([]*seqMap, len(cfg.Tiles)),
		dedup:  make(map[topology.NodeID][]tileDedup),
		half:   make([]halfAccepted, len(cfg.Tiles)),
	}
	for i := range r.maps {
		r.maps[i] = newSeqMap(mapWindow)
	}
	return r, nil
}

// NumShards returns the tile count.
func (r *Router) NumShards() int { return len(r.tiles) }

// Tile returns shard i's responsibility rectangle.
func (r *Router) Tile(i int) Partition { return Partition{r.tiles[i]} }

// Attach installs (or replaces, after a failover) tile i's shard. The
// old shard, if any, is not closed — failover controllers own that.
func (r *Router) Attach(i int, s broker.Shard) error {
	if i < 0 || i >= len(r.tiles) {
		return fmt.Errorf("federate: shard index %d out of range [0,%d)", i, len(r.tiles))
	}
	r.mu.Lock()
	r.shards[i] = s
	r.mu.Unlock()
	return nil
}

// ShardObserver returns the delivery observer to install on tile i's
// broker (broker.WithObserver / replicate promotion options). It routes
// the shard's deliveries through the federation merge.
func (r *Router) ShardObserver(i int) func(topology.NodeID, broker.Delivery) {
	return func(n topology.NodeID, d broker.Delivery) { r.Feed(i, n, d) }
}

// shard reads tile i's current shard.
func (r *Router) shard(i int) broker.Shard {
	r.mu.RLock()
	s := r.shards[i]
	r.mu.RUnlock()
	return s
}

// Retryable reports whether a shard error should trigger shard
// re-resolution and retry rather than failing the operation: fencing
// after a promotion, a simulated crash, a shard (or its connection)
// closed mid-failover.
func Retryable(err error) bool {
	return errors.Is(err, replicate.ErrFenced) ||
		errors.Is(err, faults.ErrCrashed) ||
		errors.Is(err, broker.ErrClosed) ||
		errors.Is(err, transport.ErrConnClosed) ||
		errors.Is(err, ErrNoShard)
}

// withShard runs op against tile i's shard, retrying retryable failures
// with backoff and re-resolution until the retry budget is exhausted.
func (r *Router) withShard(i int, op func(s broker.Shard) error) error {
	deadline := time.Now().Add(r.cfg.RetryTimeout)
	backoff := r.cfg.RetryBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		if r.closed.Load() {
			return ErrClosed
		}
		if s := r.shard(i); s != nil {
			err := op(s)
			if err == nil {
				return nil
			}
			if !Retryable(err) {
				return err
			}
			lastErr = err
		} else {
			lastErr = ErrNoShard
		}
		if attempt >= r.cfg.MaxRetries || !time.Now().Before(deadline) {
			return fmt.Errorf("federate: shard %d unavailable after %d attempts: %w", i, attempt+1, lastErr)
		}
		r.stats.retries.Add(1)
		if r.cfg.Resolve != nil {
			if ns := r.cfg.Resolve(i); ns != nil && ns != r.shard(i) {
				r.Attach(i, ns)
				r.stats.resolves.Add(1)
			}
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// Publish sends ev to the shard whose tile contains the event point.
// See PublishSeq.
func (r *Router) Publish(ev workload.Event) error {
	_, err := r.PublishSeq(ev)
	return err
}

// PublishSeq publishes ev under a router-global seq on the one shard
// that owns the event point, recording the shard's local seq for
// delivery translation. Each DecideSeq attempt takes a fresh global seq
// until one consumes a local seq; from then on the retries keep it. The
// global seq is returned even on error (-1 if no shard was reachable):
// the shard may have journaled the event (and will deliver it after a
// failover replay) even when its publish call failed, and the recorded
// translation is what keeps that replay plus the router's retry from
// double delivering.
func (r *Router) PublishSeq(ev workload.Event) (int64, error) {
	if r.closed.Load() {
		return -1, ErrClosed
	}
	i := r.tiles.Owner(ev.Point)
	if i < 0 {
		return -1, fmt.Errorf("federate: no tile owns event point %v", ev.Point)
	}
	r.stats.published.Add(1)
	g, consumed := int64(-1), false
	err := r.withShard(i, func(s broker.Shard) error {
		if !consumed {
			// No shard holds this publish yet, so it can take a seq
			// that is current when it enters the shard (see Feed).
			g = r.gseq.Add(1) - 1
		}
		r.stats.fanout.Add(1)
		local, err := s.DecideSeq(ev)
		if local >= 0 {
			if err != nil {
				r.markHalfAccepted(i, g)
			}
			// Record even on error: the seq was consumed, possibly
			// journaled, and may resurface as a failover replay.
			r.maps[i].record(local, g)
			consumed = true
		}
		return err
	})
	return g, err
}

// Subscribe registers s on every shard whose tile intersects its
// rectangle — a rectangle straddling a tile boundary lives on several
// shards — and returns a federation-wide id that resolves back to all of
// them.
func (r *Router) Subscribe(s workload.Subscription) (int, error) {
	if r.closed.Load() {
		return -1, ErrClosed
	}
	var cover [8]int
	own := r.tiles.Covering(cover[:0], s.Rect)
	if len(own) == 0 {
		return -1, fmt.Errorf("federate: no tile intersects subscription rect %v", s.Rect)
	}
	refs := make([]SlotRef, 0, len(own))
	for _, i := range own {
		var slot int
		err := r.withShard(i, func(sh broker.Shard) error {
			got, serr := sh.Subscribe(s)
			if serr == nil {
				slot = got
			}
			return serr
		})
		if err != nil {
			// Roll back the shards already registered so a failed
			// subscribe leaves no half-installed straddler behind.
			for _, ref := range refs {
				_ = r.withShard(ref.Shard, func(sh broker.Shard) error { return sh.Unsubscribe(ref.Slot) })
			}
			return -1, err
		}
		refs = append(refs, SlotRef{Shard: i, Slot: slot})
	}
	if len(refs) > 1 {
		r.stats.crossShardSubs.Add(1)
	}
	r.mu.Lock()
	id := r.nextSub
	r.nextSub++
	r.subs[id] = refs
	r.mu.Unlock()
	return id, nil
}

// Unsubscribe cancels the subscription with the federation id Subscribe
// returned, removing it from every shard it was registered on.
func (r *Router) Unsubscribe(id int) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	refs, ok := r.subs[id]
	if ok {
		delete(r.subs, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownSub, id)
	}
	var firstErr error
	for _, ref := range refs {
		err := r.withShard(ref.Shard, func(sh broker.Shard) error { return sh.Unsubscribe(ref.Slot) })
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Refs returns the (shard, slot) pairs behind a subscription id —
// observability for tests and operators; the slots themselves must not
// be fed back into shard APIs behind the router's back.
func (r *Router) Refs(id int) []SlotRef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]SlotRef(nil), r.subs[id]...)
}

// feedWait bounds how long Feed polls for a missing seq translation.
// Deliveries race the recording DecideSeq return by nanoseconds; only a
// replay of pre-router journal content waits the full budget.
const feedWait = 20 * time.Millisecond

// Feed merges one delivery from shard i into the federated stream:
// translate the shard-local seq to the router-global one, suppress
// duplicates per (subscriber node, tile), forward the survivor. It is the
// body of ShardObserver(i) and the entry point for remote shard pumps.
//
// Every event has one owning tile, so node n's deliveries from tile i all
// come from tile i's broker, in its local seq order up to the reordering
// among its fan-out workers; a promoted broker enqueues its replay before
// it serves new publishes. dedup[n][i].global is a residue window over the
// global seqs of that stream. It reads a seq more than dedupWindow below
// the highest it admitted as seen, so it relies on this bound: a first
// delivery to n from tile i lies within dedupWindow global seqs of the
// highest seq that (n, i) admitted. PublishSeq makes it hold: a publish
// takes its global seq just before the DecideSeq attempt that gives it a
// local seq, so a tile's global order departs from its local order only
// by the publishes that take a global seq while one is on its way into
// the shard, however long a publish spent retrying before.
//
// A half-accepted publish is the exception. Its DecideSeq consumed a local
// seq and failed, so it keeps its global seq through the retries, and a
// promoted shard may replay the consumed seq long after. Its copies are
// counted exactly, per node, in half[i], which is filled before the seq's
// translation is recorded so that no copy of it misses the set.
//
// The windows and sets are keyed by tile, not shard, so they survive
// Attach: a promoted shard's replay meets the old incarnation's
// admissions.
func (r *Router) Feed(i int, n topology.NodeID, d broker.Delivery) {
	g, ok := r.maps[i].lookup(d.Seq)
	if !ok {
		// The broker can deliver before PublishSeq returns to the
		// router; give the translation a moment to be recorded.
		deadline := time.Now().Add(feedWait)
		for !ok && time.Now().Before(deadline) && !r.closed.Load() {
			time.Sleep(100 * time.Microsecond)
			g, ok = r.maps[i].lookup(d.Seq)
		}
	}
	if !ok {
		r.stats.unmapped.Add(1)
	}
	r.dedupMu.Lock()
	ws := r.dedup[n]
	if ws == nil {
		ws = make([]tileDedup, len(r.tiles))
		r.dedup[n] = ws
	}
	td := &ws[i]
	var fresh bool
	if ok {
		if td.global == nil {
			td.global = wire.NewWindow(dedupWindow)
		}
		fresh = td.global.Admit(g)
		if held, half := r.half[i].nodes[g]; half {
			// The window may have slid far past g; the set is exact.
			_, dup := held[n]
			held[n] = struct{}{}
			fresh = !dup
		}
	} else {
		if td.local == nil {
			td.local = wire.NewWindow(dedupWindow)
		}
		fresh = td.local.Admit(d.Seq)
	}
	r.dedupMu.Unlock()
	if !fresh {
		r.stats.suppressed.Add(1)
		return
	}
	if ok {
		d.Seq = g
	} else {
		// No global seq exists; forward a synthetic one, negative so it
		// cannot collide with global seqs.
		d.Seq = ^(int64(i)<<48 | d.Seq)
	}
	r.stats.delivered.Add(1)
	if r.cfg.Observer != nil {
		r.cfg.Observer(n, d)
	}
}

// tileDedup is one (node, tile) stream's duplicate suppression. global
// admits mapped deliveries by global seq; local admits unmapped ones — a
// replay from an incarnation predating this router, for which no global
// seq exists — by the local seq that tile's broker replays them under.
// Each window is created on its first use.
type tileDedup struct{ global, local *wire.Window }

// halfAccepted is one tile's set of half-accepted publishes: the global
// seq of each publish whose DecideSeq consumed a local seq and failed,
// with the nodes that have admitted a copy of it. It remembers the last
// dedupWindow such publishes.
type halfAccepted struct {
	nodes map[int64]map[topology.NodeID]struct{}
	order []int64 // global seqs, oldest first
}

// markHalfAccepted adds g to tile i's half-accepted set, once.
func (r *Router) markHalfAccepted(i int, g int64) {
	r.dedupMu.Lock()
	defer r.dedupMu.Unlock()
	h := &r.half[i]
	if _, known := h.nodes[g]; known {
		return
	}
	if h.nodes == nil {
		h.nodes = make(map[int64]map[topology.NodeID]struct{})
	}
	h.nodes[g] = make(map[topology.NodeID]struct{})
	h.order = append(h.order, g)
	if len(h.order) > dedupWindow {
		delete(h.nodes, h.order[0])
		h.order = h.order[1:]
	}
}

// Stats snapshots the router's counters.
func (r *Router) Stats() Stats { return r.stats.snapshot() }

// Close marks the router closed and closes every distinct attached
// shard once. Further operations return ErrClosed.
func (r *Router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.mu.Lock()
	shards := append([]broker.Shard(nil), r.shards...)
	r.mu.Unlock()
	seen := make(map[broker.Shard]bool, len(shards))
	var firstErr error
	for _, s := range shards {
		if s == nil || seen[s] {
			continue
		}
		seen[s] = true
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
