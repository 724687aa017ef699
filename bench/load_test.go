package main

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testTraffic is hand-made traffic: owners 1..8, the narrow owner 9 with a
// rectangle holding the events whose first coordinate is ≤ 0.5 (half of
// them), no world behind it.
func testTraffic(n int) *traffic {
	tr := &traffic{narrowOwner: 9, churnOwner: 10, narrow: space.Rect{space.Span(0, 0.5), space.Full()}}
	for i := 1; i <= fanOwners; i++ {
		tr.owners = append(tr.owners, topology.NodeID(i))
	}
	for i := 0; i < n; i++ {
		tr.events = append(tr.events, workload.Event{Pub: topology.NodeID(i), Point: space.Point{float64(i%10)/10 + 0.05, 1}})
	}
	return tr
}

// fakeClock is a scripted time source: sleep advances it exactly, except
// that the stallAt-th sleep oversleeps by stall — a descheduled generator.
type fakeClock struct {
	mu      sync.Mutex
	t       time.Time
	sleeps  int
	stallAt int
	stall   time.Duration
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps++
	c.t = c.t.Add(d)
	if c.sleeps == c.stallAt {
		c.t = c.t.Add(c.stall)
	}
}

func TestOpenLoopKeepsDueTimesThroughAStall(t *testing.T) {
	const n, rate = 200, 1000 // one event per millisecond
	const stallAt, stall = 50, 30 * time.Millisecond
	tr := testTraffic(n)
	start := time.Unix(1000, 0)
	fc := &fakeClock{t: start, stallAt: stallAt, stall: stall}
	ep := endpoints{publish: func(ev workload.Event) (int64, error) { return int64(ev.Pub), nil }}
	recs := openLoop(tr.events, rate, ep, clock{now: fc.now, sleep: fc.sleep}, start)

	for i, r := range recs {
		if want := time.Duration(i) * time.Millisecond; r.due != want {
			t.Fatalf("event %d due %v, want %v: the schedule must never be re-based", i, r.due, want)
		}
		if r.seq != int64(i) || r.err != nil {
			t.Fatalf("event %d: seq %d err %v", i, r.seq, r.err)
		}
		if r.sent < r.due {
			t.Fatalf("event %d sent %v before it was due %v", i, r.sent, r.due)
		}
	}
	// Event 0 needs no sleep, so the 50th sleep precedes event 50.
	for i := 0; i < stallAt; i++ {
		if late := recs[i].sent - recs[i].due; late != 0 {
			t.Errorf("event %d late by %v before the stall", i, late)
		}
	}
	// The stall makes events 50…80 overdue: all go out at once, each keeping
	// its own due time, so lateness falls from 30 ms to zero, 1 ms per event.
	for k := 0; k <= 30; k++ {
		i := stallAt + k
		if late, want := recs[i].sent-recs[i].due, stall-time.Duration(k)*time.Millisecond; late != want {
			t.Errorf("event %d late by %v, want %v", i, late, want)
		}
	}
	if late := recs[stallAt+40].sent - recs[stallAt+40].due; late != 0 {
		t.Errorf("event %d still late by %v after the backlog was sent", stallAt+40, late)
	}
	// Overdue events are sent without sleeping: one sleep per on-time event.
	if want := (n - 1) - 30; fc.sleeps != want {
		t.Errorf("%d sleeps, want %d", fc.sleeps, want)
	}

	// Latency is timed from the due time, so the stall shows up on the
	// events it delayed even though the system answered each in 1 ms.
	col := newCollector(tr, 0, n, start)
	for i, r := range recs {
		deliverAll(col, tr, int64(i), tr.events[i], start.Add(r.sent+time.Millisecond))
	}
	s := analyze(tr.events, recs, col, tr.narrow, 0, 200*time.Millisecond, 20*time.Millisecond)
	if s.violations() != 0 || s.stray != 0 {
		t.Fatalf("clean run reported violations: %+v", s)
	}
	if s.measured != n {
		t.Fatalf("measured %d, want %d", s.measured, n)
	}
	// Events 50…60 waited 30…20 ms plus 1 ms of service: 11 miss a 20 ms limit.
	if want := n - 11; s.withinLimit != want {
		t.Errorf("within limit %d, want %d", s.withinLimit, want)
	}
	// The share is taken over the whole window: the stall sits in one of the
	// six windows, and a median of window shares would report 1.
	if want := float64(n-11) / float64(n); s.withinShare != want {
		t.Errorf("within-limit share %v, want %v", s.withinShare, want)
	}
	if s.p999Us < 30000 {
		t.Errorf("p99.9 %v us hides the 30 ms stall", s.p999Us)
	}
	if s.lateP99Us[1] < 20000 {
		t.Errorf("window 1 lateness p99 %v us does not report the stall", s.lateP99Us[1])
	}
	if s.p50Us != 1000 {
		t.Errorf("p50 %v us, want the 1000 us service time", s.p50Us)
	}
}

// deliverAll records every delivery the receiver is owed for one event.
func deliverAll(col *collector, tr *traffic, seq int64, ev workload.Event, at time.Time) {
	for _, o := range tr.owners {
		col.onDeliver(wire.Deliver{Node: o, Seq: seq, Ev: ev, Interested: true}, at)
	}
	if tr.narrow.Contains(ev.Point) {
		col.onDeliver(wire.Deliver{Node: tr.narrowOwner, Seq: seq, Ev: ev, Interested: true}, at)
	}
}

// cleanRun is a run in which every event was delivered exactly as owed.
func cleanRun(n int) (*traffic, []pubRec, *collector) {
	tr := testTraffic(n)
	start := time.Unix(2000, 0)
	col := newCollector(tr, 0, n, start)
	pubs := make([]pubRec, n)
	for i := range pubs {
		due := time.Duration(i) * time.Millisecond
		pubs[i] = pubRec{due: due, sent: due, acked: due + 500*time.Microsecond, seq: int64(i)}
		deliverAll(col, tr, int64(i), tr.events[i], start.Add(due+2*time.Millisecond))
	}
	return tr, pubs, col
}

func check(tr *traffic, pubs []pubRec, col *collector) loadStats {
	return analyze(tr.events, pubs, col, tr.narrow, 0, time.Duration(len(pubs))*time.Millisecond, 20*time.Millisecond)
}

func TestExactlyOnceChecker(t *testing.T) {
	const n = 60
	t.Run("clean", func(t *testing.T) {
		tr, pubs, col := cleanRun(n)
		s := check(tr, pubs, col)
		if s.violations() != 0 || s.stray != 0 || s.withinLimit != n || s.attempted != n {
			t.Fatalf("clean run: %+v", s)
		}
		if want := int64(n*fanOwners + n/2); col.count.Load() != want || expectedDeliveries(tr.events, tr.narrow) != want {
			t.Fatalf("deliveries %d, expected %d, want %d", col.count.Load(), expectedDeliveries(tr.events, tr.narrow), want)
		}
	})
	t.Run("injected loss", func(t *testing.T) {
		tr, pubs, col := cleanRun(n)
		col.recs[17].mask &^= 1 << 3 // owner 4 never got event 17
		s := check(tr, pubs, col)
		if s.lost != 1 || s.violations() != 1 {
			t.Fatalf("one lost delivery: %+v", s)
		}
		if s.withinLimit != n-1 {
			t.Errorf("a lost event must count as missing the limit: within %d of %d", s.withinLimit, n)
		}
	})
	t.Run("injected duplicate", func(t *testing.T) {
		tr, pubs, col := cleanRun(n)
		col.onDeliver(wire.Deliver{Node: tr.owners[2], Seq: 23, Ev: tr.events[23]}, col.start.Add(time.Second))
		s := check(tr, pubs, col)
		if s.dup != 1 || s.violations() != 1 || s.withinLimit != n-1 {
			t.Fatalf("one duplicated delivery: %+v", s)
		}
	})
	t.Run("narrow rectangle against brute force", func(t *testing.T) {
		tr, pubs, col := cleanRun(n)
		// Event 7 lies outside the rectangle (0.75 > 0.5) yet was delivered
		// to the narrow owner; event 2 lies inside and was not.
		col.onDeliver(wire.Deliver{Node: tr.narrowOwner, Seq: 7, Ev: tr.events[7]}, col.start.Add(time.Second))
		col.recs[2].mask &^= 1 << fanOwners
		s := check(tr, pubs, col)
		if s.spurious != 1 || s.lost != 1 || s.violations() != 2 {
			t.Fatalf("narrow mismatches: %+v", s)
		}
	})
	t.Run("failed publish and stray delivery", func(t *testing.T) {
		tr, pubs, col := cleanRun(n)
		pubs[5].err = errors.New("refused")
		col.onDeliver(wire.Deliver{Node: 500, Seq: 1}, col.start)    // a node nobody subscribed
		col.onDeliver(wire.Deliver{Node: 1, Seq: 10 * n}, col.start) // a sequence never published
		s := check(tr, pubs, col)
		if s.failed != 1 || s.stray != 2 || s.violations() != 1 {
			t.Fatalf("failed publish / stray deliveries: %+v", s)
		}
	})
}

func TestAwaitCompleteCountsUndelivered(t *testing.T) {
	tr, _, col := cleanRun(20)
	if got := awaitComplete(col, 20, 0); got != 0 {
		t.Fatalf("complete run reports %d incomplete", got)
	}
	col.recs[4].mask = 0
	col.recs[9].dups = 1
	if got := awaitComplete(col, 20, 0); got != 2 {
		t.Fatalf("incomplete = %d, want 2", got)
	}
	if got := awaitComplete(col, 25, 0); got != 7 {
		t.Fatalf("sequences beyond the records must count: got %d, want 7", got)
	}
	_ = tr
}

func TestChurnPairAccounting(t *testing.T) {
	var res churnResult
	slots := int64(0)
	ep := endpoints{
		subscribe:   func(topology.NodeID, space.Rect) (int64, error) { slots++; return slots, nil },
		unsubscribe: func(slot int64) error { return nil },
	}
	churnPair(ep, 10, space.FullRect(2), &res)
	ep.unsubscribe = func(int64) error { return errors.New("unknown slot") }
	churnPair(ep, 10, space.FullRect(2), &res)
	ep.subscribe = func(topology.NodeID, space.Rect) (int64, error) { return 0, errors.New("draining") }
	churnPair(ep, 10, space.FullRect(2), &res)
	if res.ops != 5 || res.failed != 2 || len(res.subUs) != 1 || res.firstErr == nil {
		t.Fatalf("churn accounting: %+v", res)
	}
}
