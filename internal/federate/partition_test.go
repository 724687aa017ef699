package federate

import (
	"math"
	"testing"

	"repro/internal/space"
)

func TestDeriveRejectsBadShardCounts(t *testing.T) {
	w := stockWorld(t, 901)
	train := w.Events(200, 903)
	for _, n := range []int{0, -1, 3, 6, 12} {
		if _, err := Derive(w, train, n); err == nil {
			t.Errorf("Derive(%d) accepted a non-power-of-two shard count", n)
		}
	}
}

func TestDeriveSingleTileIsFullSpace(t *testing.T) {
	w := stockWorld(t, 905)
	tiles, err := Derive(w, w.Events(200, 906), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 1 {
		t.Fatalf("got %d tiles, want 1", len(tiles))
	}
	for d, iv := range tiles[0] {
		if iv.Bounded() {
			t.Errorf("single tile bounded along dim %d: %v", d, iv)
		}
	}
}

// TestDeriveTilesPartitionSpace proves the structural contract the
// router leans on for derived partitions: the tiles are pairwise
// disjoint, and every point — training events, subscription corners,
// and points far outside the trained bounds — has an owning tile.
func TestDeriveTilesPartitionSpace(t *testing.T) {
	w := stockWorld(t, 907)
	train := w.Events(800, 909)
	for _, n := range []int{2, 4, 8} {
		tiles, err := Derive(w, train, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(tiles) != n {
			t.Fatalf("got %d tiles, want %d", len(tiles), n)
		}
		if err := tiles.Validate(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if tiles[i].Intersects(tiles[j]) {
					t.Errorf("n=%d: tiles %d and %d overlap: %v / %v", n, i, j, tiles[i], tiles[j])
				}
			}
		}
		var pts []space.Point
		for _, ev := range train[:200] {
			pts = append(pts, ev.Point)
		}
		for _, s := range w.Subs {
			p := make(space.Point, len(s.Rect))
			for d, iv := range s.Rect {
				p[d] = iv.Hi // rect corners sit exactly on potential cuts
			}
			pts = append(pts, p)
		}
		far := make(space.Point, w.Dim)
		for d := range far {
			far[d] = 1e12
		}
		pts = append(pts, far)
		for _, p := range pts {
			if tiles.Owner(p) < 0 {
				t.Fatalf("n=%d: point %v has no owning tile", n, p)
			}
		}
	}
}

// TestDeriveBalancesSubscribers checks the weighted split spreads the
// subscription population instead of slicing off empty corners: every
// tile must intersect a meaningful share of the subscriptions.
func TestDeriveBalancesSubscribers(t *testing.T) {
	w := stockWorld(t, 911)
	train := w.Events(800, 913)
	tiles, err := Derive(w, train, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, tile := range tiles {
		n := 0
		for _, s := range w.Subs {
			if s.Rect.Intersects(tile) {
				n++
			}
		}
		// Loose floor: a quarter of a fair share. The split balances
		// p(a)·|s(a)| weight, not raw sub counts, so exact quarters are
		// not expected — but no tile may be starved.
		if n < len(w.Subs)/16 {
			t.Errorf("tile %d intersects only %d/%d subscriptions", i, n, len(w.Subs))
		}
	}
}

// TestPartitionCovering checks subscription→shard ownership, including
// boundary straddlers mapping to several tiles.
func TestPartitionCovering(t *testing.T) {
	tiles := Partition{
		{{Lo: inf(-1), Hi: 5}},
		{{Lo: 5, Hi: inf(1)}},
	}
	if err := tiles.Validate(); err != nil {
		t.Fatal(err)
	}
	var got []int
	got = tiles.Covering(got[:0], space.Rect{{Lo: 1, Hi: 2}})
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("left rect covered by %v, want [0]", got)
	}
	got = tiles.Covering(got[:0], space.Rect{{Lo: 4, Hi: 6}})
	if len(got) != 2 {
		t.Errorf("straddling rect covered by %v, want both tiles", got)
	}
}

func inf(sign int) float64 { return math.Inf(sign) }
