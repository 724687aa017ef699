package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
	"repro/internal/space"
	"repro/internal/topology"
	"repro/internal/workload"
)

// synthInput builds a hand-crafted Input with nClusters blocks of
// cellsPer identical-membership hyper-cells each; blocks are pairwise
// disjoint in membership, so a perfect clustering has zero waste.
func synthInput(nClusters, cellsPer, subsPer int) *Input {
	ns := nClusters * subsPer
	in := &Input{NumSubscribers: ns}
	id := space.CellID(0)
	for c := 0; c < nClusters; c++ {
		for j := 0; j < cellsPer; j++ {
			m := bitset.New(ns)
			for s := 0; s < subsPer; s++ {
				m.Set(c*subsPer + s)
			}
			in.Cells = append(in.Cells, HyperCell{
				Cells:   []space.CellID{id},
				Members: m,
				Prob:    0.01 * float64(1+j%3),
			})
			id++
		}
	}
	in.TotalHyperCells = len(in.Cells)
	sortByRating(in)
	return in
}

// sortByRating restores the BuildInput contract (cells arrive sorted by
// non-increasing popularity rating) for hand-built inputs.
func sortByRating(in *Input) {
	sort.SliceStable(in.Cells, func(i, j int) bool {
		return in.Cells[i].Rating() > in.Cells[j].Rating()
	})
}

// noisyInput perturbs synthInput so memberships within a block overlap
// heavily but are not identical (hyper-cell coalescing must not collapse
// them, and clustering still has a clearly best partition).
func noisyInput(r *rand.Rand, nClusters, cellsPer, subsPer int) *Input {
	in := synthInput(nClusters, cellsPer, subsPer)
	for i := range in.Cells {
		// Remove one random member (keeping at least one).
		m := in.Cells[i].Members
		if m.Count() > 1 {
			idx := m.Indices()
			m.Clear(idx[r.Intn(len(idx))])
		}
	}
	sortByRating(in)
	return in
}

func allAlgorithms() []Algorithm {
	return []Algorithm{
		&KMeans{Variant: MacQueen},
		&KMeans{Variant: Forgy},
		&Pairwise{},
		&Pairwise{Approx: true},
		MST{},
	}
}

func validAssignment(t *testing.T, a Assignment, n, k int, name string) {
	t.Helper()
	if len(a) != n {
		t.Fatalf("%s: assignment length %d, want %d", name, len(a), n)
	}
	groups := map[int]bool{}
	for i, g := range a {
		if g < 0 {
			t.Fatalf("%s: cell %d unassigned", name, i)
		}
		groups[g] = true
	}
	if len(groups) > k {
		t.Fatalf("%s: %d groups, want ≤ %d", name, len(groups), k)
	}
}

func TestVariantString(t *testing.T) {
	if MacQueen.String() != "k-means" || Forgy.String() != "forgy" {
		t.Error("variant strings wrong")
	}
	if (&Pairwise{}).Name() != "pairs" || (&Pairwise{Approx: true}).Name() != "approx-pairs" {
		t.Error("pairwise names wrong")
	}
	if (MST{}).Name() != "mst" {
		t.Error("mst name wrong")
	}
}

func TestDistProperties(t *testing.T) {
	a := bitset.FromIndices(10, 1, 2, 3)
	b := bitset.FromIndices(10, 3, 4)
	// d(a,b) = pa·|{1,2}| + pb·|{4}| = 0.5·2 + 0.25·1
	if got := Dist(0.5, a, 0.25, b); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("Dist = %v, want 1.25", got)
	}
	if got := Dist(0.5, a, 0.25, a); got != 0 {
		t.Errorf("Dist to self = %v", got)
	}
	if Dist(0.5, a, 0.25, b) != Dist(0.25, b, 0.5, a) {
		t.Error("Dist not symmetric")
	}
}

func TestValidateErrors(t *testing.T) {
	in := synthInput(2, 2, 2)
	for _, alg := range allAlgorithms() {
		if _, err := alg.Cluster(nil, 3); err == nil {
			t.Errorf("%s: nil input accepted", alg.Name())
		}
		if _, err := alg.Cluster(&Input{}, 3); err == nil {
			t.Errorf("%s: empty input accepted", alg.Name())
		}
		if _, err := alg.Cluster(in, 0); err == nil {
			t.Errorf("%s: k=0 accepted", alg.Name())
		}
	}
}

func TestKAtLeastCellsGivesSingletons(t *testing.T) {
	in := synthInput(2, 3, 2)
	for _, alg := range allAlgorithms() {
		a, err := alg.Cluster(in, len(in.Cells))
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i, g := range a {
			if g != i {
				t.Fatalf("%s: expected singleton assignment, got %v", alg.Name(), a)
			}
		}
		w, err := ExpectedWaste(in, a)
		if err != nil {
			t.Fatal(err)
		}
		if w != 0 {
			t.Errorf("%s: singleton waste = %v", alg.Name(), w)
		}
	}
}

func TestKOneGroupsEverything(t *testing.T) {
	in := synthInput(3, 2, 2)
	for _, alg := range allAlgorithms() {
		a, err := alg.Cluster(in, 1)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		validAssignment(t, a, len(in.Cells), 1, alg.Name())
		res, err := BuildResult(in, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 1 {
			t.Fatalf("%s: %d groups for k=1", alg.Name(), len(res.Groups))
		}
		if res.Groups[0].Members.Count() != in.NumSubscribers {
			t.Errorf("%s: k=1 group missing members", alg.Name())
		}
	}
}

func TestPerfectSeparationRecovered(t *testing.T) {
	in := synthInput(4, 5, 3)
	for _, alg := range allAlgorithms() {
		a, err := alg.Cluster(in, 4)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		validAssignment(t, a, len(in.Cells), 4, alg.Name())
		w, err := ExpectedWaste(in, a)
		if err != nil {
			t.Fatal(err)
		}
		if _, approx := alg.(*Pairwise); approx && alg.(*Pairwise).Approx {
			// The secretary rule may accept a suboptimal merge; it must
			// still stay within the one-group worst case.
			a1, _ := alg.Cluster(in, 1)
			w1, _ := ExpectedWaste(in, a1)
			if w > w1 {
				t.Errorf("approx-pairs: waste %v exceeds one-group waste %v", w, w1)
			}
			continue
		}
		if w != 0 {
			t.Errorf("%s: waste %v on perfectly separable input", alg.Name(), w)
		}
		res, _ := BuildResult(in, a)
		if len(res.Groups) != 4 {
			t.Errorf("%s: %d groups, want 4", alg.Name(), len(res.Groups))
		}
	}
}

func TestNoisySeparationBeatsOneGroup(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := noisyInput(r, 3, 6, 4)
	for _, alg := range allAlgorithms() {
		a3, err := alg.Cluster(in, 3)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		a1, err := alg.Cluster(in, 1)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		w3, _ := ExpectedWaste(in, a3)
		w1, _ := ExpectedWaste(in, a1)
		if w3 >= w1 {
			t.Errorf("%s: waste(k=3)=%v not < waste(k=1)=%v", alg.Name(), w3, w1)
		}
	}
}

func TestDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := noisyInput(r, 3, 8, 4)
	for _, alg := range allAlgorithms() {
		a, err := alg.Cluster(in, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := alg.Cluster(in, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic assignment", alg.Name())
			}
		}
	}
}

// TestHierarchicalNesting verifies the monotone-subdivision property the
// paper credits to MST and Pairs: the K-group solution refines the
// (K-1)-group solution.
func TestHierarchicalNesting(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	in := noisyInput(r, 4, 6, 3)
	for _, alg := range []Algorithm{MST{}, &Pairwise{}} {
		prev := map[int]int{} // cell → group at K-1... built below
		for k := 2; k <= 8; k++ {
			a, err := alg.Cluster(in, k)
			if err != nil {
				t.Fatal(err)
			}
			if k > 2 {
				// Every group at K must be contained in one group at K-1.
				groupOf := map[int]int{}
				for ci, g := range a {
					if pg, ok := groupOf[g]; ok {
						if pg != prev[ci] {
							t.Fatalf("%s: group %d at k=%d spans two k-1 groups", alg.Name(), g, k)
						}
					} else {
						groupOf[g] = prev[ci]
					}
				}
			}
			prev = map[int]int{}
			for ci, g := range a {
				prev[ci] = g
			}
		}
	}
}

func TestBuildResultErrors(t *testing.T) {
	in := synthInput(2, 2, 2)
	if _, err := BuildResult(in, Assignment{0}); err == nil {
		t.Error("short assignment accepted")
	}
	bad := singletonAssignment(len(in.Cells))
	bad[0] = -1
	if _, err := BuildResult(in, bad); err == nil {
		t.Error("negative assignment accepted")
	}
}

func TestBuildResultGroupsConsistent(t *testing.T) {
	in := synthInput(3, 4, 2)
	a, err := (&KMeans{}).Cluster(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := BuildResult(in, a)
	if err != nil {
		t.Fatal(err)
	}
	// Every clustered grid cell maps to a group containing its members.
	for ci, cell := range in.Cells {
		gi, ok := res.CellGroup[cell.Cells[0]]
		if !ok {
			t.Fatalf("cell %d missing from CellGroup", ci)
		}
		if !cell.Members.IsSubsetOf(res.Groups[gi].Members) {
			t.Fatalf("cell %d members not in its group", ci)
		}
	}
	// Group probability masses sum to the input total.
	sum := 0.0
	for _, g := range res.Groups {
		sum += g.Prob
	}
	want := 0.0
	for _, c := range in.Cells {
		want += c.Prob
	}
	if math.Abs(sum-want) > 1e-12 {
		t.Errorf("group prob sum %v != input sum %v", sum, want)
	}
}

func buildStockWorld(t *testing.T) (*workload.World, *space.Grid, []workload.Event) {
	t.Helper()
	cfg := topology.Eval600
	cfg.Seed = 21
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: 300, PubModes: 1, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := space.NewGrid(w.Axes)
	if err != nil {
		t.Fatal(err)
	}
	return w, grid, w.Events(2000, 23)
}

func TestBuildInputFromWorld(t *testing.T) {
	w, grid, train := buildStockWorld(t)
	in, err := BuildInput(w, grid, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Cells) == 0 {
		t.Fatal("no hyper-cells built")
	}
	if in.TotalHyperCells != len(in.Cells) {
		t.Errorf("budget 0 should keep all cells: %d vs %d", in.TotalHyperCells, len(in.Cells))
	}
	if in.NumSubscribers != w.NumSubscribers() {
		t.Errorf("NumSubscribers = %d, want %d", in.NumSubscribers, w.NumSubscribers())
	}

	// Rating order is non-increasing.
	for i := 1; i < len(in.Cells); i++ {
		if in.Cells[i].Rating() > in.Cells[i-1].Rating()+1e-12 {
			t.Fatalf("cells not rating-sorted at %d", i)
		}
	}

	// Hyper-cells have pairwise distinct membership vectors.
	for i := 0; i < len(in.Cells) && i < 200; i++ {
		for j := i + 1; j < len(in.Cells) && j < 200; j++ {
			if in.Cells[i].Members.Equal(in.Cells[j].Members) {
				t.Fatalf("hyper-cells %d and %d share a membership vector", i, j)
			}
		}
	}

	// Membership correctness: spot-check against brute force.
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 100; trial++ {
		hc := in.Cells[r.Intn(len(in.Cells))]
		cid := hc.Cells[r.Intn(len(hc.Cells))]
		rect := grid.CellRect(cid)
		want := bitset.New(in.NumSubscribers)
		for _, s := range w.Subs {
			if s.Rect.Intersects(rect) {
				idx, _ := w.SubscriberIndex(s.Owner)
				want.Set(idx)
			}
		}
		if !want.Equal(hc.Members) {
			t.Fatalf("membership mismatch for cell %d", cid)
		}
	}

	// Probability mass ≤ 1 and positive for some cell.
	total := 0.0
	for _, c := range in.Cells {
		if c.Prob < 0 {
			t.Fatal("negative probability")
		}
		total += c.Prob
	}
	if total <= 0 || total > 1+1e-9 {
		t.Errorf("total probability mass %v", total)
	}
}

func TestBuildInputBudget(t *testing.T) {
	w, grid, train := buildStockWorld(t)
	full, err := BuildInput(w, grid, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	budget := len(full.Cells) / 2
	cut, err := BuildInput(w, grid, train, budget)
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Cells) != budget {
		t.Fatalf("budget %d kept %d cells", budget, len(cut.Cells))
	}
	if cut.TotalHyperCells != len(full.Cells) {
		t.Errorf("TotalHyperCells %d, want %d", cut.TotalHyperCells, len(full.Cells))
	}
	// The kept cells are the highest-rated ones.
	minKept := cut.Cells[len(cut.Cells)-1].Rating()
	for _, c := range full.Cells[budget:] {
		if c.Rating() > minKept+1e-12 {
			t.Fatal("budget kept a lower-rated cell over a higher-rated one")
		}
	}
}

func TestBuildInputErrors(t *testing.T) {
	w, grid, train := buildStockWorld(t)
	if _, err := BuildInput(nil, grid, train, 0); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := BuildInput(w, nil, train, 0); err == nil {
		t.Error("nil grid accepted")
	}
	if _, err := BuildInput(w, grid, nil, 0); err == nil {
		t.Error("no training events accepted")
	}
	if _, err := BuildInput(w, grid, train, -1); err == nil {
		t.Error("negative budget accepted")
	}
	wrongGrid, _ := space.UniformGrid(2, 0, 1, 2)
	if _, err := BuildInput(w, wrongGrid, train, 0); err == nil {
		t.Error("dim-mismatched grid accepted")
	}
}

func TestAlgorithmsOnRealWorldInput(t *testing.T) {
	w, grid, train := buildStockWorld(t)
	in, err := BuildInput(w, grid, train, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range allAlgorithms() {
		a, err := alg.Cluster(in, 20)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		validAssignment(t, a, len(in.Cells), 20, alg.Name())
		w20, _ := ExpectedWaste(in, a)
		a1, _ := alg.Cluster(in, 1)
		w1, _ := ExpectedWaste(in, a1)
		if w20 > w1 {
			t.Errorf("%s: waste(20)=%v > waste(1)=%v", alg.Name(), w20, w1)
		}
	}
}

func TestQuickAssignmentsAlwaysValid(t *testing.T) {
	law := func(seed int64, kRaw, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nClusters := int(nRaw%3) + 2
		in := noisyInput(r, nClusters, int(nRaw%4)+2, 3)
		k := int(kRaw)%len(in.Cells) + 1
		for _, alg := range allAlgorithms() {
			a, err := alg.Cluster(in, k)
			if err != nil {
				return false
			}
			if len(a) != len(in.Cells) {
				return false
			}
			groups := map[int]bool{}
			for _, g := range a {
				if g < 0 {
					return false
				}
				groups[g] = true
			}
			if len(groups) > k {
				return false
			}
			if _, err := ExpectedWaste(in, a); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(law, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInputAnalyticAgreesWithEmpirical(t *testing.T) {
	w, grid, train := buildStockWorld(t)
	emp, err := BuildInput(w, grid, train, 0)
	if err != nil {
		t.Fatal(err)
	}
	probOf := func(r space.Rect) float64 {
		p, ok := w.AnalyticCellProb(r)
		if !ok {
			t.Fatal("stock world lost analytic probabilities")
		}
		return p
	}
	ana, err := BuildInputAnalytic(w, grid, probOf, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same membership structure: the hyper-cell partition only depends on
	// subscriptions, so total counts match.
	if ana.TotalHyperCells != emp.TotalHyperCells {
		t.Fatalf("hyper-cell counts differ: %d vs %d", ana.TotalHyperCells, emp.TotalHyperCells)
	}
	// Probability masses agree within sampling noise, cell by cell (keyed
	// by first grid cell id).
	empProb := map[space.CellID]float64{}
	for _, c := range emp.Cells {
		empProb[c.Cells[0]] = c.Prob
	}
	var sumAbs, count float64
	for _, c := range ana.Cells {
		if c.Prob < 0 || c.Prob > 1 {
			t.Fatalf("analytic prob out of range: %v", c.Prob)
		}
		sumAbs += mathAbs(c.Prob - empProb[c.Cells[0]])
		count++
	}
	if mean := sumAbs / count; mean > 0.002 {
		t.Errorf("mean |analytic-empirical| = %v, too large", mean)
	}
	// End to end: clustering on analytic probabilities works.
	assign, err := (&KMeans{Variant: Forgy}).Cluster(ana, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildResult(ana, assign); err != nil {
		t.Fatal(err)
	}
}

func TestBuildInputAnalyticNilFn(t *testing.T) {
	w, grid, _ := buildStockWorld(t)
	if _, err := BuildInputAnalytic(w, grid, nil, 0); err == nil {
		t.Error("nil prob function accepted")
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
