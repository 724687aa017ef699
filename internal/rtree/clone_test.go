package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/space"
)

func sortedHits(t *Tree, p space.Point) []int {
	hits := t.SearchPoint(p)
	sort.Ints(hits)
	return hits
}

// TestCloneIsolation: a clone must answer queries identically at clone
// time and stay frozen while the original keeps mutating — including
// through node splits and condensation, which rewrite nodes the two trees
// shared until the writer copied them.
func TestCloneIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(600))
	const dim = 3
	tr := New(dim)
	rects := make([]space.Rect, 0, 400)
	for i := 0; i < 200; i++ {
		r := randRect(rng, dim)
		rects = append(rects, r)
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}

	cl := tr.Clone()
	if cl.Len() != tr.Len() {
		t.Fatalf("clone Len = %d, want %d", cl.Len(), tr.Len())
	}

	// Record the clone's answers on a probe set.
	probes := make([]space.Point, 100)
	for i := range probes {
		p := make(space.Point, dim)
		for d := range p {
			p[d] = rng.Float64() * 24
		}
		probes[i] = p
	}
	before := make([][]int, len(probes))
	for i, p := range probes {
		before[i] = sortedHits(cl, p)
		if want := sortedHits(tr, p); !reflect.DeepEqual(before[i], want) {
			t.Fatalf("clone diverged from original at clone time: %v vs %v", before[i], want)
		}
	}

	// Mutate the original hard: force splits with 200 more inserts, delete
	// half the originals.
	for i := 200; i < 400; i++ {
		r := randRect(rng, dim)
		rects = append(rects, r)
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i += 2 {
		if !tr.Delete(rects[i], i) {
			t.Fatalf("delete %d failed", i)
		}
	}

	for i, p := range probes {
		if got := sortedHits(cl, p); !reflect.DeepEqual(got, before[i]) {
			t.Fatalf("clone drifted after original mutated: probe %d %v vs %v", i, got, before[i])
		}
	}

	// And the other direction: mutating the clone leaves the original alone.
	live := map[int]bool{}
	for i := 1; i < 400; i += 2 {
		live[i] = true
	}
	for i := 200; i < 400; i += 2 {
		live[i] = true
	}
	snapshot := make([][]int, len(probes))
	for i, p := range probes {
		snapshot[i] = sortedHits(tr, p)
	}
	for i := 1; i < 100; i += 2 {
		if !cl.Delete(rects[i], i) {
			t.Fatalf("clone delete %d failed", i)
		}
	}
	for i, p := range probes {
		if got := sortedHits(tr, p); !reflect.DeepEqual(got, snapshot[i]) {
			t.Fatalf("original drifted after clone mutated: probe %d", i)
		}
	}
}

// TestCloneEmpty: cloning an empty tree works and the clone is usable.
func TestCloneEmpty(t *testing.T) {
	tr := New(2)
	cl := tr.Clone()
	if cl.Len() != 0 {
		t.Fatalf("empty clone Len = %d", cl.Len())
	}
	if err := cl.Insert(space.Rect{space.Span(0, 1), space.Span(0, 1)}, 7); err != nil {
		t.Fatal(err)
	}
	if hits := tr.SearchPoint(space.Point{0.5, 0.5}); len(hits) != 0 {
		t.Fatal("insert on clone leaked into original")
	}
	if hits := cl.SearchPoint(space.Point{0.5, 0.5}); len(hits) != 1 || hits[0] != 7 {
		t.Fatalf("clone insert lost: %v", hits)
	}
}

// TestCloneUnderConcurrentWriter: clones handed to reader goroutines must
// keep answering as they did at clone time while the writer goes on
// inserting and deleting in the original — the snapshot decision plane's
// use. Each clone's expected answers come from the oracle at clone time.
// Run under -race, this also proves the writer never writes a node a clone
// can reach.
func TestCloneUnderConcurrentWriter(t *testing.T) {
	const (
		dim     = 3
		steps   = 500
		every   = 25 // writer steps between clones
		readers = 4
	)
	rng := rand.New(rand.NewSource(601))
	tr := New(dim)
	var oracle bruteIndex
	type item struct {
		rect space.Rect
		id   int
	}
	var live []item
	for i := 0; i < 300; i++ {
		r := randRect(rng, dim)
		if err := tr.Insert(r, i); err != nil {
			t.Fatal(err)
		}
		oracle.insert(r, i)
		live = append(live, item{r, i})
	}
	probes := make([]space.Point, 64)
	for i := range probes {
		probes[i] = randPoint(rng, dim)
	}

	type frozen struct {
		tree *Tree
		want [][]int
	}
	// Each reader's channel holds every clone the writer will take, so the
	// writer never blocks on a slow reader.
	feeds := make([]chan frozen, readers)
	for i := range feeds {
		feeds[i] = make(chan frozen, steps/every+1)
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(feed <-chan frozen) {
			defer wg.Done()
			var kept []frozen
			check := func() {
				for _, f := range kept {
					for i, p := range probes {
						if got := sortedHits(f.tree, p); !reflect.DeepEqual(got, f.want[i]) {
							t.Errorf("clone drifted under a concurrent writer: probe %d %v, want %v", i, got, f.want[i])
							return
						}
					}
				}
			}
			for f := range feed {
				kept = append(kept, f)
				check()
			}
			check()
		}(feeds[r])
	}

	next := 300
	var clones []frozen
	for step := 0; step < steps; step++ {
		if step%every == 0 {
			f := frozen{tree: tr.Clone(), want: make([][]int, len(probes))}
			for i, p := range probes {
				f.want[i] = oracle.searchPoint(p)
				sort.Ints(f.want[i])
			}
			clones = append(clones, f)
			for _, feed := range feeds {
				feed <- f
			}
		}
		if len(live) == 0 || rng.Intn(2) == 0 {
			r := randRect(rng, dim)
			if err := tr.Insert(r, next); err != nil {
				t.Fatal(err)
			}
			oracle.insert(r, next)
			live = append(live, item{r, next})
			next++
		} else {
			k := rng.Intn(len(live))
			if !tr.Delete(live[k].rect, live[k].id) {
				t.Fatalf("step %d: delete of live id %d failed", step, live[k].id)
			}
			oracle.remove(live[k].rect, live[k].id)
			live = append(live[:k], live[k+1:]...)
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()

	if err := tr.checkInvariants(); err != nil {
		t.Fatalf("writer: %v", err)
	}
	for i, p := range probes {
		sameIDs(t, tr.SearchPoint(p), oracle.searchPoint(p), fmt.Sprintf("writer probe %d", i))
	}
	for k, f := range clones {
		if err := f.tree.checkInvariants(); err != nil {
			t.Fatalf("clone %d: %v", k, err)
		}
	}
}
