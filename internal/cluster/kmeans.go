package cluster

import (
	"fmt"
	"math/bits"

	"repro/internal/bitset"
)

// Variant selects between the two iterative K-means flavours studied in the
// paper (§4.2): MacQueen updates a cluster's membership vector after every
// single move, Forgy applies a whole pass of assignments before updating.
type Variant uint8

// K-means variants.
const (
	MacQueen Variant = iota
	Forgy
)

func (v Variant) String() string {
	switch v {
	case MacQueen:
		return "k-means"
	case Forgy:
		return "forgy"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

// KMeans is the iterative cell-clustering algorithm. The zero value is a
// MacQueen K-means with the paper's default iteration cap, sharding its
// frozen-vector distance scans across GOMAXPROCS workers.
type KMeans struct {
	Variant Variant
	// MaxIters caps re-assignment passes; the paper uses 100 and observes
	// convergence in under 20. Defaults to 100 when 0.
	MaxIters int
	// Parallelism is the worker count for the frozen-vector distance scans
	// (initial seeding and the Forgy assignment pass): 0 means GOMAXPROCS,
	// 1 forces the sequential path. Assignments are byte-identical for
	// every worker count.
	Parallelism int
}

// Name implements Algorithm.
func (k *KMeans) Name() string { return k.Variant.String() }

// SetParallelism implements Parallel.
func (k *KMeans) SetParallelism(workers int) { k.Parallelism = workers }

// kstate tracks the mutable cluster vectors: every group's membership
// vector as one column of a flat word matrix, with its cardinality,
// probability mass and cell count.
type kstate struct {
	in *Input
	k  int
	// Each cell's non-zero membership words, flattened once: cell ci owns
	// cellWords[cellOff[ci]:cellOff[ci+1]], so a scan touches only the
	// words it populates.
	cellOff   []int
	cellWords []cellWord
	// mat is the group matrix, column-major: word w of group g is
	// mat[w*k+g], so the K words a cell word meets sit in one row.
	mat  []uint64
	ones []int // ones[g] = |group g's vector|
	// counts[i*k+g] counts group g's cells that contain subscriber i, so a
	// cell can leave a group exactly. Nil for Forgy, which rebuilds mat
	// from the assignment after each pass instead.
	counts  []int32
	prob    []float64
	size    []int
	assign  Assignment
	workers int
	// cellOnes[ci] = |cell ci|, so the nearest-group scan derives both
	// AND-NOT counts from the intersection count alone.
	cellOnes []int
	// xCnt is the sequential-path scratch buffer for the intersection
	// scan; sharded passes take per-worker copies.
	xCnt []int
}

// cellWord is one non-zero word of a cell's membership vector.
type cellWord struct {
	bits uint64
	w    int // word index
}

func newKState(in *Input, k, workers int, counted bool) *kstate {
	st := &kstate{
		in:       in,
		k:        k,
		cellOff:  make([]int, len(in.Cells)+1),
		mat:      make([]uint64, (in.NumSubscribers+63)/64*k),
		ones:     make([]int, k),
		prob:     make([]float64, k),
		size:     make([]int, k),
		assign:   make(Assignment, len(in.Cells)),
		workers:  workers,
		cellOnes: make([]int, len(in.Cells)),
		xCnt:     make([]int, k),
	}
	// Two passes over the members — count the non-zero words, then fill
	// them — so the word list is one exact allocation.
	for ci := range in.Cells {
		last := -1
		in.Cells[ci].Members.ForEach(func(i int) bool {
			if i/64 != last {
				last = i / 64
				st.cellOff[ci+1]++
			}
			st.cellOnes[ci]++
			return true
		})
		st.cellOff[ci+1] += st.cellOff[ci]
	}
	st.cellWords = make([]cellWord, 0, st.cellOff[len(in.Cells)])
	for ci := range in.Cells {
		in.Cells[ci].Members.ForEach(func(i int) bool {
			if n := len(st.cellWords); n == st.cellOff[ci] || st.cellWords[n-1].w != i/64 {
				st.cellWords = append(st.cellWords, cellWord{w: i / 64})
			}
			st.cellWords[len(st.cellWords)-1].bits |= 1 << (i % 64)
			return true
		})
	}
	if counted {
		st.counts = make([]int32, in.NumSubscribers*k)
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	return st
}

// move puts cell ci in group g, taking it out of its current group first
// if it has one. A first placement ORs the cell's words into g's vector.
// With counts the vectors follow every move exactly; without them a move
// out of a group updates only masses, sizes and the assignment, and the
// caller must rebuild before the vectors are read again.
func (st *kstate) move(ci, g int) {
	old, p := st.assign[ci], st.in.Cells[ci].Prob
	if old >= 0 {
		st.prob[old] -= p
		st.size[old]--
	}
	st.prob[g] += p
	st.size[g]++
	st.assign[ci] = g
	if old >= 0 && st.counts == nil {
		return
	}
	for _, cw := range st.cellWords[st.cellOff[ci]:st.cellOff[ci+1]] {
		w, v := cw.w, cw.bits
		for b := v; st.counts != nil && b != 0; b &= b - 1 {
			i := w*64 + bits.TrailingZeros64(b)
			if old >= 0 {
				if st.counts[i*st.k+old]--; st.counts[i*st.k+old] == 0 {
					st.mat[w*st.k+old] &^= 1 << (i % 64)
					st.ones[old]--
				}
			}
			st.counts[i*st.k+g]++
		}
		cur := &st.mat[w*st.k+g]
		st.ones[g] += bits.OnesCount64(v &^ *cur)
		*cur |= v
	}
}

// rebuild re-derives every group vector and cardinality from the
// assignment: each placed cell's words are ORed into its group's column.
func (st *kstate) rebuild() {
	clear(st.mat)
	for ci, g := range st.assign {
		if g < 0 {
			continue
		}
		for _, cw := range st.cellWords[st.cellOff[ci]:st.cellOff[ci+1]] {
			st.mat[cw.w*st.k+g] |= cw.bits
		}
	}
	clear(st.ones)
	for i, v := range st.mat {
		st.ones[i%st.k] += bits.OnesCount64(v)
	}
}

// closest returns the group whose membership vector is nearest to cell ci
// under the expected-waste distance. Ties break to the lowest group index.
func (st *kstate) closest(ci int) int {
	return st.closestWith(ci, st.xCnt)
}

// closestWith is closest with caller-owned scratch (len ≥ #groups), so
// sharded passes can evaluate cells concurrently. Each non-zero word of
// the cell meets the K group words of its matrix row in one pass
// (andCountRow); both AND-NOT counts fall out of the tracked
// cardinalities (|a ∖ g| = |a| − x, |g ∖ a| = |g| − x). The subtractions
// are exact integer arithmetic, so the distances — and the chosen group —
// are bit-identical to the two-scan formulation.
func (st *kstate) closestWith(ci int, xCnt []int) int {
	xCnt = xCnt[:st.k]
	clear(xCnt)
	for _, cw := range st.cellWords[st.cellOff[ci]:st.cellOff[ci+1]] {
		andCountRow(cw.bits, st.mat[cw.w*st.k:][:st.k], xCnt)
	}
	p, ca := st.in.Cells[ci].Prob, st.cellOnes[ci]
	best, bestD := -1, 0.0
	for g, x := range xCnt {
		d := p*float64(ca-x) + st.prob[g]*float64(st.ones[g]-x)
		if best == -1 || d < bestD {
			best, bestD = g, d
		}
	}
	return best
}

// andCountRow adds popcount(v & row[g]) to x[g] for every g, four
// independent lanes per step. len(x) must be ≥ len(row).
func andCountRow(v uint64, row []uint64, x []int) {
	x = x[:len(row)]
	g := 0
	for ; g+4 <= len(row); g += 4 {
		x[g] += bits.OnesCount64(v & row[g])
		x[g+1] += bits.OnesCount64(v & row[g+1])
		x[g+2] += bits.OnesCount64(v & row[g+2])
		x[g+3] += bits.OnesCount64(v & row[g+3])
	}
	for ; g < len(row); g++ {
		x[g] += bits.OnesCount64(v & row[g])
	}
}

// computeTargets fills target[i] with the closest group of cell id(i),
// evaluated against the frozen current cluster vectors and sharded across
// the state's workers. Shards write disjoint target slots from read-only
// state, so the result is identical for every worker count.
func (st *kstate) computeTargets(n int, id func(int) int, target []int) {
	parallelRange(st.workers, n, func(lo, hi int) {
		xCnt := st.xCnt
		var sc *bitset.Scratch
		if lo != 0 || hi != n { // sharded: pooled private scratch per worker
			sc = bitset.GetScratch()
			xCnt = sc.Ints(st.k)
		}
		for i := lo; i < hi; i++ {
			target[i] = st.closestWith(id(i), xCnt)
		}
		if sc != nil {
			sc.Release()
		}
	})
}

// seedWaves assigns cells id(0) … id(n-1) to their closest groups in
// geometrically growing waves: each wave's targets are computed against the
// vectors frozen at the wave boundary (sharded across workers), then
// applied in ascending order. Small early waves preserve the solution
// quality of fully incremental seeding — group vectors update often while
// the groups are still small and malleable — while the later, large waves
// carry the bulk of the O(n·K) distance scans and shard efficiently. The
// wave schedule is a pure function of (n, K), so assignments are
// byte-identical for every worker count.
func (st *kstate) seedWaves(n int, id func(int) int) {
	if n <= 0 {
		return
	}
	wave := st.k // start at K, the number of groups
	if wave < 4 {
		wave = 4
	}
	target := make([]int, 0, n)
	for start := 0; start < n; start, wave = start+wave, wave*2 {
		end := start + wave
		if end > n {
			end = n
		}
		target = target[:end-start]
		st.computeTargets(end-start, func(i int) int { return id(start + i) }, target)
		for i, g := range target {
			st.move(id(start+i), g)
		}
	}
}

// Cluster implements Algorithm.
func (k *KMeans) Cluster(in *Input, groups int) (Assignment, error) {
	if err := validateK(in, groups); err != nil {
		return nil, err
	}
	if groups >= len(in.Cells) {
		return singletonAssignment(len(in.Cells)), nil
	}
	maxIters := k.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}

	st := newKState(in, groups, resolveWorkers(k.Parallelism), k.Variant != Forgy)
	// Step 0 — initial partition: the K most popular hyper-cells seed the
	// groups (cells arrive rating-sorted from BuildInput); the remainder
	// join their closest group in geometrically growing waves, sharding the
	// distance scans across workers deterministically.
	for g := 0; g < groups; g++ {
		st.move(g, g)
	}
	st.seedWaves(len(in.Cells)-groups, func(i int) int { return groups + i })

	switch k.Variant {
	case MacQueen:
		k.runMacQueen(st, maxIters)
	case Forgy:
		k.runForgy(st, maxIters)
	default:
		return nil, fmt.Errorf("cluster: unknown k-means variant %d", k.Variant)
	}
	return st.assign, nil
}

// ClusterWarm resumes iterative clustering from a prior assignment — the
// paper's subscription-dynamics story (§6, item 5): when subscriptions
// change, a few re-balancing passes from the previous partition are far
// cheaper than clustering from scratch. initial maps each cell to a group
// in [0, groups); cells with initial[i] < 0 join their closest group after
// the seeded cells are placed.
func (k *KMeans) ClusterWarm(in *Input, groups int, initial Assignment, iters int) (Assignment, error) {
	if err := validateK(in, groups); err != nil {
		return nil, err
	}
	if len(initial) != len(in.Cells) {
		return nil, fmt.Errorf("cluster: warm start has %d entries for %d cells", len(initial), len(in.Cells))
	}
	if groups >= len(in.Cells) {
		return singletonAssignment(len(in.Cells)), nil
	}
	if iters <= 0 {
		iters = 1
	}
	st := newKState(in, groups, resolveWorkers(k.Parallelism), k.Variant != Forgy)
	var unplaced []int
	for ci, g := range initial {
		if g >= groups {
			return nil, fmt.Errorf("cluster: warm start group %d out of range [0,%d)", g, groups)
		}
		if g < 0 {
			unplaced = append(unplaced, ci)
			continue
		}
		st.move(ci, g)
	}
	// Guarantee every group is non-empty (closest() must see live vectors
	// and the move rules assume no empty groups): seed empties with the
	// most popular unplaced or already-placed cells. Without counts a move
	// leaves the vectors stale, so they are rebuilt once afterwards.
	moved := false
	for g := 0; g < groups; g++ {
		if st.size[g] > 0 {
			continue
		}
		if len(unplaced) > 0 {
			st.move(unplaced[0], g)
			unplaced = unplaced[1:]
			continue
		}
		for ci := range in.Cells {
			if st.size[st.assign[ci]] > 1 {
				st.move(ci, g)
				moved = true
				break
			}
		}
	}
	if moved && st.counts == nil {
		st.rebuild()
	}
	st.seedWaves(len(unplaced), func(i int) int { return unplaced[i] })
	switch k.Variant {
	case MacQueen:
		k.runMacQueen(st, iters)
	case Forgy:
		k.runForgy(st, iters)
	default:
		return nil, fmt.Errorf("cluster: unknown k-means variant %d", k.Variant)
	}
	return st.assign, nil
}

// cycleDetector remembers every end-of-pass assignment and reports when a
// state recurs. Both K-means variants are deterministic maps from one
// assignment to the next (the cluster vectors are a pure function of the
// assignment), so a repeated state proves the iteration has entered a limit
// cycle and will never converge — further passes are provably wasted work.
// On inputs that do converge, detection costs one hash and one snapshot of
// the int slice per pass, noise next to the O(n·K) distance scans.
type cycleDetector struct {
	hashes []uint64
	snaps  []Assignment
}

// seen reports whether a has occurred at the end of an earlier pass, and
// records it otherwise.
func (c *cycleDetector) seen(a Assignment) bool {
	var h uint64 = 14695981039346656037
	for _, g := range a {
		h = (h ^ uint64(uint(g))) * 1099511628211
	}
	for idx, ph := range c.hashes {
		if ph != h {
			continue
		}
		same := true
		for i, g := range c.snaps[idx] {
			if g != a[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	c.hashes = append(c.hashes, h)
	c.snaps = append(c.snaps, append(Assignment(nil), a...))
	return false
}

// runMacQueen re-assigns cells one at a time, updating cluster vectors
// after every move, until a full pass moves nothing or the pass-to-pass
// state starts cycling.
func (k *KMeans) runMacQueen(st *kstate, maxIters int) {
	var cd cycleDetector
	for iter := 0; iter < maxIters; iter++ {
		moved := false
		for ci := range st.in.Cells {
			cur := st.assign[ci]
			if st.size[cur] == 1 {
				continue // a cluster may not lose its last cell
			}
			best := st.closest(ci)
			if best != cur {
				st.move(ci, best)
				moved = true
			}
		}
		if !moved || cd.seen(st.assign) {
			return
		}
	}
}

// runForgy computes a whole pass of assignments against frozen cluster
// vectors, then applies the moves and updates. The assignment pass is
// embarrassingly parallel (the vectors are frozen), so it shards across
// the configured workers. The moves update only masses, sizes and the
// assignment; the group matrix is rebuilt from the assignment once per
// pass, which costs one OR per cell word where per-move updates walked
// every member of every moved cell (most cells move in most passes). The
// loop stops when a pass moves nothing, on the first repeated end-of-pass
// state (a limit cycle), or after maxIters passes.
func (k *KMeans) runForgy(st *kstate, maxIters int) {
	n := len(st.in.Cells)
	target := make([]int, n)
	ident := func(i int) int { return i }
	var cd cycleDetector
	for iter := 0; iter < maxIters; iter++ {
		st.computeTargets(n, ident, target)
		moved := false
		for ci, want := range target {
			cur := st.assign[ci]
			if want == cur || st.size[cur] == 1 {
				continue
			}
			st.move(ci, want)
			moved = true
		}
		if !moved {
			return
		}
		st.rebuild()
		if cd.seen(st.assign) {
			return
		}
	}
}
