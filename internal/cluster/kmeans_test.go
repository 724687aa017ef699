package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bitset"
	"repro/internal/space"
)

// refKMeans is the K-means state before the group matrix: per-(group,
// subscriber) containment counts kept exact on every move, one
// *bitset.Set per group, and one intersection count per (cell, group)
// pair. It runs sequentially and is the oracle the matrix form must match
// assignment for assignment.
type refKMeans struct {
	in      *Input
	counts  [][]int32
	members []*bitset.Set
	ones    []int
	prob    []float64
	size    []int
	assign  Assignment
	cycled  bool // a run stopped on a repeated end-of-pass state
}

func newRefKMeans(in *Input, k int) *refKMeans {
	st := &refKMeans{
		in:      in,
		counts:  make([][]int32, k),
		members: make([]*bitset.Set, k),
		ones:    make([]int, k),
		prob:    make([]float64, k),
		size:    make([]int, k),
		assign:  make(Assignment, len(in.Cells)),
	}
	for g := 0; g < k; g++ {
		st.counts[g] = make([]int32, in.NumSubscribers)
		st.members[g] = bitset.New(in.NumSubscribers)
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	return st
}

func (st *refKMeans) add(ci, g int) {
	cell := &st.in.Cells[ci]
	cell.Members.ForEach(func(i int) bool {
		st.counts[g][i]++
		if st.counts[g][i] == 1 {
			st.members[g].Set(i)
			st.ones[g]++
		}
		return true
	})
	st.prob[g] += cell.Prob
	st.size[g]++
	st.assign[ci] = g
}

func (st *refKMeans) remove(ci int) {
	g := st.assign[ci]
	cell := &st.in.Cells[ci]
	cell.Members.ForEach(func(i int) bool {
		st.counts[g][i]--
		if st.counts[g][i] == 0 {
			st.members[g].Clear(i)
			st.ones[g]--
		}
		return true
	})
	st.prob[g] -= cell.Prob
	st.size[g]--
	st.assign[ci] = -1
}

func (st *refKMeans) closest(ci int) int {
	cell := &st.in.Cells[ci]
	ca := cell.Members.Count()
	best, bestD := -1, 0.0
	for g, m := range st.members {
		x := cell.Members.IntersectCount(m)
		d := cell.Prob*float64(ca-x) + st.prob[g]*float64(st.ones[g]-x)
		if best == -1 || d < bestD {
			best, bestD = g, d
		}
	}
	return best
}

func (st *refKMeans) seedWaves(n int, id func(int) int) {
	wave := len(st.members)
	if wave < 4 {
		wave = 4
	}
	for start := 0; start < n; start, wave = start+wave, wave*2 {
		end := min(start+wave, n)
		target := make([]int, end-start)
		for i := range target {
			target[i] = st.closest(id(start + i))
		}
		for i, g := range target {
			st.add(id(start+i), g)
		}
	}
}

func (st *refKMeans) run(v Variant, maxIters int) {
	var cd cycleDetector
	for iter := 0; iter < maxIters; iter++ {
		moved := false
		if v == MacQueen {
			for ci := range st.in.Cells {
				cur := st.assign[ci]
				if st.size[cur] == 1 {
					continue
				}
				if best := st.closest(ci); best != cur {
					st.remove(ci)
					st.add(ci, best)
					moved = true
				}
			}
		} else {
			target := make([]int, len(st.in.Cells))
			for ci := range target {
				target[ci] = st.closest(ci)
			}
			for ci, want := range target {
				cur := st.assign[ci]
				if want == cur || st.size[cur] == 1 {
					continue
				}
				st.remove(ci)
				st.add(ci, want)
				moved = true
			}
		}
		if !moved {
			return
		}
		if cd.seen(st.assign) {
			st.cycled = true
			return
		}
	}
}

// refCluster is KMeans.Cluster on the reference state.
func refCluster(v Variant, in *Input, k, maxIters int) (Assignment, bool) {
	if k >= len(in.Cells) {
		return singletonAssignment(len(in.Cells)), false
	}
	st := newRefKMeans(in, k)
	for g := 0; g < k; g++ {
		st.add(g, g)
	}
	st.seedWaves(len(in.Cells)-k, func(i int) int { return k + i })
	st.run(v, maxIters)
	return st.assign, st.cycled
}

// refClusterWarm is KMeans.ClusterWarm on the reference state.
func refClusterWarm(v Variant, in *Input, k int, initial Assignment, iters int) (Assignment, bool) {
	if k >= len(in.Cells) {
		return singletonAssignment(len(in.Cells)), false
	}
	st := newRefKMeans(in, k)
	var unplaced []int
	for ci, g := range initial {
		if g < 0 {
			unplaced = append(unplaced, ci)
			continue
		}
		st.add(ci, g)
	}
	for g := 0; g < k; g++ {
		if st.size[g] > 0 {
			continue
		}
		if len(unplaced) > 0 {
			st.add(unplaced[0], g)
			unplaced = unplaced[1:]
			continue
		}
		for ci := range in.Cells {
			if st.size[st.assign[ci]] > 1 {
				st.remove(ci)
				st.add(ci, g)
				break
			}
		}
	}
	st.seedWaves(len(unplaced), func(i int) int { return unplaced[i] })
	st.run(v, iters)
	return st.assign, st.cycled
}

// refInput draws n cells over ns subscribers. Each cell takes a random
// density; a sparse input caps cells at a few dozen members scattered over
// the whole universe, so most of a vector's words stay zero.
func refInput(r *rand.Rand, n, ns int, sparse bool) *Input {
	in := &Input{NumSubscribers: ns, TotalHyperCells: n}
	for i := 0; i < n; i++ {
		m := bitset.New(ns)
		if sparse {
			for j := 1 + r.Intn(40); j > 0; j-- {
				m.Set(r.Intn(ns))
			}
		} else {
			p := []float64{0.02, 0.1, 0.3, 0.6}[r.Intn(4)]
			for s := 0; s < ns; s++ {
				if r.Float64() < p {
					m.Set(s)
				}
			}
		}
		in.Cells = append(in.Cells, HyperCell{
			Cells:   []space.CellID{space.CellID(i)},
			Members: m,
			Prob:    0.0001 + 0.001*r.Float64(),
		})
	}
	sortByRating(in)
	return in
}

// warmStart is a stale prior assignment over k' < k groups (so groups
// k'…k-1 start empty) with every fifth cell unplaced.
func warmStart(r *rand.Rand, n, k int) Assignment {
	used := max(1, k/2)
	a := make(Assignment, n)
	for i := range a {
		if i%5 == 0 {
			a[i] = -1
		} else {
			a[i] = r.Intn(used)
		}
	}
	return a
}

// TestKMeansMatchesReference holds the group-matrix K-means to the
// per-group-set reference on both variants, cold and warm, across group
// counts, universes on both sides of a word boundary, a sparse 64 Ki
// universe, an input whose Forgy iteration cycles, and every worker count.
func TestKMeansMatchesReference(t *testing.T) {
	type tc struct {
		name   string
		in     *Input
		iters  int  // cold-run MaxIters
		cycles bool // the reference must stop on a repeated state
	}
	r := rand.New(rand.NewSource(2024))
	cases := []tc{
		{"ns=1", refInput(r, 160, 1, false), 100, false},
		{"ns=63", refInput(r, 160, 63, false), 100, false},
		{"ns=65", refInput(r, 160, 65, false), 100, false},
		{"ns=600", refInput(r, 160, 600, false), 100, false},
		{"ns=65536-sparse", refInput(r, 140, 65536, true), 4, false},
		{"cycling", cyclingInput(), 100, true},
	}
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, c := range cases {
		for _, k := range []int{1, 2, 10, 100} {
			for _, v := range []Variant{MacQueen, Forgy} {
				t.Run(fmt.Sprintf("%s/k=%d/%s", c.name, k, v), func(t *testing.T) {
					want, cycled := refCluster(v, c.in, k, c.iters)
					initial := warmStart(rand.New(rand.NewSource(int64(k))), len(c.in.Cells), k)
					wantWarm, _ := refClusterWarm(v, c.in, k, initial, 3)
					for _, w := range workers {
						alg := &KMeans{Variant: v, MaxIters: c.iters, Parallelism: w}
						got, err := alg.Cluster(c.in, k)
						if err != nil {
							t.Fatal(err)
						}
						if !assignmentsEqual(got, want) {
							t.Fatalf("workers=%d: Cluster diverges from the reference", w)
						}
						gotWarm, err := alg.ClusterWarm(c.in, k, initial, 3)
						if err != nil {
							t.Fatal(err)
						}
						if !assignmentsEqual(gotWarm, wantWarm) {
							t.Fatalf("workers=%d: ClusterWarm diverges from the reference", w)
						}
					}
					if c.cycles && v == Forgy && k == cyclingK && !cycled {
						t.Fatal("the cycling input no longer cycles; the case checks nothing")
					}
				})
			}
		}
	}
}

// cyclingK is the group count at which cyclingInput's Forgy iteration
// enters a limit cycle, so the case covers the cycle detector's exit.
const cyclingK = 10

func cyclingInput() *Input { return refInput(rand.New(rand.NewSource(1)), 120, 40, false) }

// TestForgyAllocatesNoCounts checks that Forgy, which rebuilds its group
// matrix once per pass, allocates less in total than the per-(group,
// subscriber) counts alone would take, and that MacQueen, which needs
// them, still does.
func TestForgyAllocatesNoCounts(t *testing.T) {
	const ns, k = 65536, 32
	const countsBytes = k * ns * 4 // 8 MiB of int32
	in := refInput(rand.New(rand.NewSource(7)), 200, ns, true)
	alloc := func(v Variant) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (&KMeans{Variant: v, Parallelism: 1}).Cluster(in, k); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	if got := alloc(Forgy); got >= countsBytes {
		t.Errorf("Forgy allocated %d bytes, want < %d", got, countsBytes)
	}
	if got := alloc(MacQueen); got < countsBytes {
		t.Errorf("MacQueen allocated %d bytes, want ≥ %d for its counts", got, countsBytes)
	}
}
