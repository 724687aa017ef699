package federate

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/faults"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// nopShard is an attachable shard that is never driven: the dedup tests
// feed the router recorded translations directly.
type nopShard struct{}

func (nopShard) DecideSeq(workload.Event) (int64, error)      { return -1, nil }
func (nopShard) Subscribe(workload.Subscription) (int, error) { return 0, nil }
func (nopShard) Unsubscribe(int) error                        { return nil }
func (nopShard) Close() error                                 { return nil }

// lineRouter returns a router over n disjoint tiles of a 1-D space.
func lineRouter(t *testing.T, n int) *Router {
	t.Helper()
	tiles := make(Partition, n)
	for i := range tiles {
		tiles[i] = space.Rect{{Lo: float64(2 * i), Hi: float64(2*i + 1)}}
	}
	r, err := NewRouter(Config{Tiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRouterDedupPerTile pins the per-(node, tile) dedup: a lagging tile's
// low global seq is not read as stale beside another tile's high one, a
// repeated (tile, G) is suppressed, unmapped replays collapse, and the
// windows outlive a shard swap.
func TestRouterDedupPerTile(t *testing.T) {
	r := lineRouter(t, 2)
	defer r.Close()
	const n = topology.NodeID(7)
	r.maps[1].record(0, 100_000)
	r.maps[0].record(0, 3)
	r.Feed(1, n, broker.Delivery{Seq: 0})
	// The lagging tile's first delivery to n sits far below tile 1's
	// admission: it is new, not stale.
	r.Feed(0, n, broker.Delivery{Seq: 0})
	if st := r.Stats(); st.Delivered != 2 || st.Suppressed != 0 {
		t.Fatalf("after two first deliveries: %+v, want 2 delivered and none suppressed", st)
	}

	r.Feed(0, n, broker.Delivery{Seq: 0})
	if st := r.Stats(); st.Delivered != 2 || st.Suppressed != 1 {
		t.Fatalf("after a repeated (tile, G): %+v, want Suppressed = 1", st)
	}

	// Local seq 9 on tile 0 was never recorded: a replay from before this
	// router. It dedups by local seq in the tile's replay window, admitted
	// once.
	r.Feed(0, n, broker.Delivery{Seq: 9})
	r.Feed(0, n, broker.Delivery{Seq: 9})
	if st := r.Stats(); st.Delivered != 3 || st.Suppressed != 2 || st.Unmapped != 2 {
		t.Fatalf("after a repeated unmapped replay: %+v, want 3 delivered, 2 suppressed, 2 unmapped", st)
	}

	// A promoted shard replays local seq 0 under the translation the dead
	// incarnation recorded: the tile's window still holds G = 3.
	if err := r.Attach(0, nopShard{}); err != nil {
		t.Fatal(err)
	}
	r.Feed(0, n, broker.Delivery{Seq: 0})
	if st := r.Stats(); st.Delivered != 3 || st.Suppressed != 3 {
		t.Fatalf("replay after Attach: %+v, want it suppressed", st)
	}
}

// stallShard hands out dense local seqs. While stalled it fails the
// publishes of one publisher node with a retryable error, consuming a
// local seq for each failure when consume is set, as a crash-frozen
// durable leader does.
type stallShard struct {
	mu       sync.Mutex
	next     int64
	stalled  bool
	consume  bool
	stallPub topology.NodeID
	hit      chan struct{} // closed at the first stalled attempt
	locals   map[topology.NodeID][]int64
}

func (s *stallShard) DecideSeq(ev workload.Event) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stalled && ev.Pub == s.stallPub {
		if s.hit != nil {
			close(s.hit)
			s.hit = nil
		}
		if !s.consume {
			return -1, faults.ErrCrashed
		}
	}
	local := s.next
	s.next++
	if s.locals == nil {
		s.locals = make(map[topology.NodeID][]int64)
	}
	s.locals[ev.Pub] = append(s.locals[ev.Pub], local)
	if s.stalled && ev.Pub == s.stallPub {
		return local, faults.ErrCrashed
	}
	return local, nil
}

func (s *stallShard) Subscribe(workload.Subscription) (int, error) { return 0, nil }
func (s *stallShard) Unsubscribe(int) error                        { return nil }
func (s *stallShard) Close() error                                 { return nil }

func (s *stallShard) unstall() {
	s.mu.Lock()
	s.stalled = false
	s.mu.Unlock()
}

// localsOf returns the local seqs pub's publishes consumed, in order.
func (s *stallShard) localsOf(pub topology.NodeID) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.locals[pub]...)
}

// TestRouterLateRetryDelivered is the case a global-seq window must not
// lose: publisher A's publish on tile 0 is stuck in retry while more than
// wire.DedupWindow global seqs go to tile 1, then publisher B's publish on tile
// 0 reaches node n before A's. A's delivery must still arrive, exactly
// once — whether A's failed attempts consumed no local seq, consumed one
// that the promoted shard never replays, or consumed one it replays ahead
// of B.
func TestRouterLateRetryDelivered(t *testing.T) {
	for _, tc := range []struct {
		name            string
		consume, replay bool
	}{
		{"nothing consumed", false, false},
		{"half-accepted, not replayed", true, false},
		{"half-accepted, replayed", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = topology.NodeID(7)
			const pubA, pubB = topology.NodeID(1), topology.NodeID(2)
			var mu sync.Mutex
			got := map[topology.NodeID]int{}
			r, err := NewRouter(Config{
				Tiles:        Partition{{{Lo: 0, Hi: 1}}, {{Lo: 2, Hi: 3}}},
				MaxRetries:   1 << 20,
				RetryBackoff: time.Millisecond,
				Observer: func(_ topology.NodeID, d broker.Delivery) {
					mu.Lock()
					got[d.Event.Pub]++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			hit := make(chan struct{})
			sh0 := &stallShard{stalled: true, consume: tc.consume, stallPub: pubA, hit: hit}
			sh1 := &stallShard{}
			r.Attach(0, sh0)
			r.Attach(1, sh1)

			evA := workload.Event{Pub: pubA, Point: space.Point{0.5}}
			evB := workload.Event{Pub: pubB, Point: space.Point{0.5}}
			done := make(chan error, 1)
			go func() {
				_, err := r.PublishSeq(evA)
				done <- err
			}()
			<-hit
			for k := 0; k < 2*wire.DedupWindow; k++ {
				if err := r.Publish(workload.Event{Pub: 100, Point: space.Point{2.5}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.replay {
				// The promoted shard replays A's consumed seq ahead of
				// the publishes it serves.
				r.Feed(0, n, broker.Delivery{Event: evA, Seq: sh0.localsOf(pubA)[0]})
			}
			if err := r.Publish(evB); err != nil {
				t.Fatal(err)
			}
			r.Feed(0, n, broker.Delivery{Event: evB, Seq: sh0.localsOf(pubB)[0]})
			sh0.unstall()
			if err := <-done; err != nil {
				t.Fatalf("publish A: %v", err)
			}
			la := sh0.localsOf(pubA)
			r.Feed(0, n, broker.Delivery{Event: evA, Seq: la[len(la)-1]})

			mu.Lock()
			defer mu.Unlock()
			if got[pubA] != 1 || got[pubB] != 1 {
				t.Fatalf("deliveries to n: A %d, B %d, want 1 each; router %+v", got[pubA], got[pubB], r.Stats())
			}
			wantSup := int64(0)
			if tc.replay {
				wantSup = 1
			}
			if st := r.Stats(); st.Suppressed != wantSup || st.Unmapped != 0 {
				t.Fatalf("router %+v, want Suppressed = %d and nothing unmapped", st, wantSup)
			}
		})
	}
}

// TestRouterDedupFootprint is the router's memory guard: 600 nodes each
// receive 6 000 mapped deliveries from each of 4 tiles, enough global seqs
// that every window slides, and the dedup state must stay under 3 MB.
// One 4096-key arrival-order map per node, the structure the windows
// replaced, grows the heap by ~100 MB on the same feed.
func TestRouterDedupFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("14.4M Feed calls; make alloc-regression runs this guard")
	}
	const tiles, nodes, perTile = 4, 600, 6000
	r := lineRouter(t, tiles)
	defer r.Close()
	// Tile i's k-th publication is global seq k*tiles+i.
	for i := 0; i < tiles; i++ {
		for k := 0; k < perTile; k++ {
			r.maps[i].record(int64(k), int64(k*tiles+i))
		}
	}
	before := liveHeap()
	for k := 0; k < perTile; k++ {
		for i := 0; i < tiles; i++ {
			for n := 0; n < nodes; n++ {
				r.Feed(i, topology.NodeID(n), broker.Delivery{Seq: int64(k)})
			}
		}
	}
	grew := liveHeap() - before
	if st := r.Stats(); st.Delivered != tiles*nodes*perTile || st.Suppressed != 0 || st.Unmapped != 0 {
		t.Fatalf("stats %+v, want every delivery admitted once", st)
	}
	runtime.KeepAlive(r)
	t.Logf("dedup state for %d nodes × %d tiles: %.2f MB", nodes, tiles, float64(grew)/(1<<20))
	if grew > 3<<20 {
		t.Fatalf("dedup state grew the heap by %.1f MB, want < 3 MB", float64(grew)/(1<<20))
	}
}

func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
