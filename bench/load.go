package main

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// connCounter counts the socket bytes of one client connection through
// ClientConfig.Dialer.
type connCounter struct{ in, out atomic.Int64 }

func (c *connCounter) dial(addr string) (net.Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &countedConn{Conn: raw, c: c}, nil
}

func (c *connCounter) total() int64 { return c.in.Load() + c.out.Load() }

type countedConn struct {
	net.Conn
	c *connCounter
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.in.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}

// endpoints is the client surface the generator drives: the two
// transport.Conn of a run, or an in-memory fake in tests.
type endpoints struct {
	publish     func(workload.Event) (int64, error)
	subscribe   func(topology.NodeID, space.Rect) (int64, error)
	unsubscribe func(int64) error
}

func connEndpoints(pub *transport.Conn) endpoints {
	return endpoints{publish: pub.PublishSeq, subscribe: pub.Subscribe, unsubscribe: pub.Unsubscribe}
}

// clock is the generator's time source; tests substitute a scripted one.
type clock struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// wallClock sleeps with nanosleep(2) rather than time.Sleep: a Go timer in
// an otherwise idle process fires from the netpoller, whose epoll timeout
// has millisecond granularity, which put ≈ 0.5 ms of generator lateness on
// every event of a low-rate workload. The kernel's own timer is good to
// tens of microseconds.
var wallClock = clock{now: time.Now, sleep: func(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}}

// delivRec is what the receiver saw for one broker sequence number.
type delivRec struct {
	last time.Duration // receipt of the latest delivery, since collector start
	mask uint16        // bit i: owner i's delivery arrived; bit fanOwners: the narrow owner's
	dups uint16        // deliveries beyond the first per (seq, owner)
}

// collector is the receiver side of a run: it indexes deliveries by broker
// sequence (PubAck.Seq = Deliver.Seq), which is how a delivery is matched
// to its event without touching the payload. onDeliver runs on the single
// receiver goroutine; mu orders it against the readers of recs, which look
// only once traffic has stopped, so it is never contended while it matters.
type collector struct {
	start time.Time
	base  int64 // first sequence this run's publishes can consume
	bit   map[topology.NodeID]uint16
	mu    sync.Mutex
	recs  []delivRec
	count atomic.Int64 // deliveries recorded
	stray atomic.Int64 // deliveries for an unknown node or sequence
}

func newCollector(tr *traffic, base int64, n int, start time.Time) *collector {
	c := &collector{start: start, base: base, bit: make(map[topology.NodeID]uint16), recs: make([]delivRec, n)}
	for i, o := range tr.owners {
		c.bit[o] = 1 << i
	}
	c.bit[tr.narrowOwner] = 1 << fanOwners
	return c
}

func (c *collector) onDeliver(d wire.Deliver, at time.Time) {
	bit, ok := c.bit[d.Node]
	i := d.Seq - c.base
	if !ok || i < 0 || i >= int64(len(c.recs)) {
		c.stray.Add(1)
		return
	}
	c.mu.Lock()
	r := &c.recs[i]
	if r.mask&bit != 0 {
		r.dups++
	}
	r.mask |= bit
	r.last = at.Sub(c.start)
	c.mu.Unlock()
	c.count.Add(1)
}

// recvLoop pumps conn's deliveries into whichever collector is current
// until the connection ends. Deliveries arriving with no collector set
// (between phases) are dropped.
func recvLoop(conn *transport.Conn, sink *atomic.Pointer[collector]) {
	for {
		d, ok := conn.Recv()
		if !ok {
			return
		}
		if c := sink.Load(); c != nil {
			c.onDeliver(d, time.Now())
		}
	}
}

// discardLoop drains a connection nobody reads: the publisher's session
// receives the churned subscriptions' deliveries, and an undrained session
// would fill its buffer and stall the broker's dispatch.
func discardLoop(conn *transport.Conn) {
	for {
		if _, ok := conn.Recv(); !ok {
			return
		}
	}
}

// pubRec is the generator's record of one event, times since run start.
type pubRec struct {
	due, sent, acked time.Duration
	seq              int64
	err              error
}

// churnSpec describes the subscription churn beside the event stream.
type churnSpec struct {
	pairsPerSec int
	owner       topology.NodeID
	rects       []space.Rect
}

// churnResult is the churn loop's accounting.
type churnResult struct {
	subUs, unsubUs []float64
	ops, failed    int
	firstErr       error
}

// openLoop publishes events on a fixed schedule: event i is due at
// start + i/rate whatever happened to the events before it. The schedule
// is never re-based — when the generator wakes late it sends what is
// overdue at once, and each event keeps its original due time, so a stall
// shows up as latency on the events it delayed instead of vanishing into a
// shifted schedule. Every publish runs on its own goroutine; the loop
// itself never waits for a reply. It returns once every publish has been
// acknowledged (or failed).
func openLoop(events []workload.Event, rate int, ep endpoints, clk clock, start time.Time) []pubRec {
	recs := make([]pubRec, len(events))
	interval := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	for i := range events {
		due := time.Duration(i) * interval
		if wait := due - clk.now().Sub(start); wait > 0 {
			clk.sleep(wait)
		}
		r := &recs[i]
		r.due = due
		r.sent = clk.now().Sub(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.seq, r.err = ep.publish(events[i])
			r.acked = clk.now().Sub(start)
		}(i)
	}
	wg.Wait()
	return recs
}

// churnLoop issues subscribe+unsubscribe pairs on their own fixed schedule
// until stop closes. Each pair is sequential (subscribe, await the ack,
// unsubscribe, await the ack), so every operation costs the daemon one
// snapshot swap — no two coalesce.
func churnLoop(spec churnSpec, ep endpoints, start time.Time, stop <-chan struct{}) churnResult {
	var res churnResult
	interval := time.Second / time.Duration(spec.pairsPerSec)
	for k := 0; ; k++ {
		if wait := time.Duration(k)*interval - time.Since(start); wait > 0 {
			select {
			case <-stop:
				return res
			case <-time.After(wait):
			}
		}
		select {
		case <-stop:
			return res
		default:
		}
		churnPair(ep, spec.owner, spec.rects[k%len(spec.rects)], &res)
	}
}

// churnPair subscribes rect for owner, awaits the ack, unsubscribes,
// awaits the ack, and accounts both operations in res.
func churnPair(ep endpoints, owner topology.NodeID, rect space.Rect, res *churnResult) {
	fail := func(op string, err error) {
		res.failed++
		if res.firstErr == nil {
			res.firstErr = fmt.Errorf("churn %s: %w", op, err)
		}
	}
	t0 := time.Now()
	slot, err := ep.subscribe(owner, rect)
	t1 := time.Now()
	res.ops++
	if err != nil {
		fail("subscribe", err)
		return
	}
	err = ep.unsubscribe(slot)
	t2 := time.Now()
	res.ops++
	if err != nil {
		fail("unsubscribe", err)
		return
	}
	res.subUs = append(res.subUs, float64(t1.Sub(t0))/1e3)
	res.unsubUs = append(res.unsubUs, float64(t2.Sub(t1))/1e3)
}

// driven is what one open-loop phase leaves behind.
type driven struct {
	pubs  []pubRec
	col   *collector
	churn churnResult
	load  loadStats
}

// drive runs one open-loop phase from start: it points the receiver at a
// fresh collector, publishes events at the workload's rate with the
// workload's churn beside them (if churn is set), waits for the tail of the
// deliveries and joins the records. Events due in [warm, warm+window) are
// timed. seqBase is the first sequence the phase's publishes can consume.
func drive(wl workloadDef, tr *traffic, events []workload.Event, ep endpoints, sink *atomic.Pointer[collector],
	seqBase int64, start time.Time, warm, window time.Duration, churn bool) driven {
	d := driven{col: newCollector(tr, seqBase, len(events), start)}
	sink.Store(d.col)
	stop := make(chan struct{})
	churned := make(chan churnResult, 1)
	if churn && wl.churnPairs > 0 {
		go func() {
			churned <- churnLoop(churnSpec{pairsPerSec: wl.churnPairs, owner: tr.churnOwner, rects: tr.churnRects}, ep, start, stop)
		}()
	} else {
		churned <- churnResult{}
	}
	d.pubs = openLoop(events, wl.rate, ep, wallClock, start)
	close(stop)
	d.churn = <-churned
	awaitDeliveries(d.col, expectedDeliveries(events, tr.narrow), 5*time.Second)
	sink.Store(nil)
	d.load = analyze(events, d.pubs, d.col, tr.narrow, warm, window, wl.limit)
	return d
}

// awaitDeliveries waits until col has recorded want deliveries, giving the
// tail of the run up to grace to arrive.
func awaitDeliveries(col *collector, want int64, grace time.Duration) {
	deadline := time.Now().Add(grace)
	for col.count.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// awaitComplete waits, up to grace, until each of the first n sequences of
// col has its F whole-space deliveries, and returns how many still have not
// (or have one repeated).
func awaitComplete(col *collector, n int, grace time.Duration) (incomplete int) {
	const allOwners = uint16(1)<<fanOwners - 1
	deadline := time.Now().Add(grace)
	for {
		incomplete = max(n-len(col.recs), 0)
		col.mu.Lock()
		for _, r := range col.recs[:min(n, len(col.recs))] {
			if r.mask&allOwners != allOwners || r.dups > 0 {
				incomplete++
			}
		}
		col.mu.Unlock()
		if incomplete == 0 || !time.Now().Before(deadline) {
			return incomplete
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// expectedDeliveries is how many deliveries the receiver is owed for
// events: F per event plus one per event inside the narrow rectangle.
func expectedDeliveries(events []workload.Event, narrow space.Rect) int64 {
	n := int64(len(events)) * fanOwners
	for _, ev := range events {
		if narrow.Contains(ev.Point) {
			n++
		}
	}
	return n
}

// loadStats is the generator's view of one open-loop phase.
type loadStats struct {
	attempted int // events published, warm-up included
	failed    int // events whose publish failed or was refused
	lost      int // events missing at least one owed delivery
	dup       int // events with a delivery repeated
	spurious  int // events delivered to the narrow owner though outside its rectangle
	stray     int // deliveries for a node or sequence the run does not know

	measured    int       // events due inside the measured window
	withinLimit int       // of those: every delivery exactly once, within the limit
	withinShare float64   // withinLimit / measured over the whole window
	winShare    []float64 // the same share per window, for diagnosis only
	p50Us       float64   // median of the per-window medians
	p50N        int
	p99Us       float64 // whole measured window
	p999Us      float64
	// lateP50Us/lateP99Us are per-window generator lateness (sent − due).
	lateP50Us, lateP99Us []float64
	winP50Us             []float64
	ackP50Us             float64 // publish round trip (sent → PubAck)
}

// violations is the number of events the exactly-once check rejects.
func (s loadStats) violations() int { return s.failed + s.lost + s.dup + s.spurious }

// analyze joins the publisher's and the receiver's records. Every event of
// the run — warm-up included — is checked for exactly-once delivery to each
// whole-space owner and for narrow-rectangle delivery equal to the
// brute-force rect.Contains(point); only events due in
// [measureFrom, measureFrom+window) are timed.
func analyze(events []workload.Event, pubs []pubRec, col *collector, narrow space.Rect,
	measureFrom, window, limit time.Duration) loadStats {
	s := loadStats{attempted: len(events), stray: int(col.stray.Load())}
	col.mu.Lock()
	defer col.mu.Unlock()
	const allOwners = uint16(1)<<fanOwners - 1
	const narrowBit = uint16(1) << fanOwners
	winLen := window / numWindows
	lat := make([][]float64, numWindows)
	late := make([][]float64, numWindows)
	winMeasured := make([]int, numWindows)
	winWithin := make([]int, numWindows)
	window0 := func(due time.Duration) int {
		w := int((due - measureFrom) / winLen)
		if w >= numWindows {
			w = numWindows - 1
		}
		return w
	}
	var all, acks []float64
	for i, p := range pubs {
		inWindow := p.due >= measureFrom && p.due < measureFrom+window
		if inWindow {
			s.measured++
			winMeasured[window0(p.due)]++
		}
		if p.err != nil || p.seq < col.base || p.seq-col.base >= int64(len(col.recs)) {
			s.failed++
			continue
		}
		r := col.recs[p.seq-col.base]
		want := allOwners
		if narrow.Contains(events[i].Point) {
			want |= narrowBit
		}
		switch {
		case r.dups > 0:
			s.dup++
			continue
		case r.mask&^want != 0:
			s.spurious++
			continue
		case r.mask != want:
			s.lost++
			continue
		}
		if !inWindow {
			continue
		}
		l := r.last - p.due
		w := window0(p.due)
		if l <= limit {
			s.withinLimit++
			winWithin[w]++
		}
		us := float64(l) / 1e3
		lat[w] = append(lat[w], us)
		late[w] = append(late[w], float64(p.sent-p.due)/1e3)
		all = append(all, us)
		acks = append(acks, float64(p.acked-p.sent)/1e3)
	}
	if s.measured > 0 {
		s.withinShare = float64(s.withinLimit) / float64(s.measured)
	}
	for w := range winMeasured {
		s.winShare = append(s.winShare, float64(winWithin[w])/float64(max(winMeasured[w], 1)))
	}
	s.p50Us, s.p50N = windowMedian(lat)
	sort.Float64s(all)
	s.p99Us = percentile(all, 99)
	s.p999Us = percentile(all, 99.9)
	s.ackP50Us = median(acks)
	for w := range lat {
		s.winP50Us = append(s.winP50Us, median(lat[w]))
		sl := sortedCopy(late[w])
		s.lateP50Us = append(s.lateP50Us, percentile(sl, 50))
		s.lateP99Us = append(s.lateP99Us, percentile(sl, 99))
	}
	return s
}

// closedLoop publishes events round-robin from inflight goroutines, each
// sending its next event when the previous is acknowledged, for dur; it
// or until maxEvents have been sent; it returns how many publishes
// completed, how many failed, and the elapsed time. This is the saturation
// probe: offered load follows the daemon.
func closedLoop(events []workload.Event, inflight int, dur time.Duration, maxEvents int64, ep endpoints) (done, failed int64, elapsed time.Duration) {
	var next, ok, bad atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for g := 0; g < inflight; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= maxEvents {
					return
				}
				if _, err := ep.publish(events[int(i)%len(events)]); err != nil {
					bad.Add(1)
				} else {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return ok.Load(), bad.Load(), time.Since(start)
}
