package rtree

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/space"
)

// FuzzTreeOps derives a deterministic op sequence from the fuzz input and
// checks the tree against a linear-scan oracle plus structural invariants.
// The first byte picks k: a Clone is taken every k-th op and retained, and
// at the end every clone must still match the oracle state of its moment.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		k := int(data[0]%8) + 1
		data = data[1:]
		tr := New(2)
		var oracle bruteIndex
		type item struct {
			rect space.Rect
			id   int
		}
		type frozen struct {
			tree   *Tree
			oracle bruteIndex
		}
		var live []item
		var clones []frozen
		next := 0
		// Consume 5 bytes per op: opcode + 4 coordinate bytes.
		for i, n := 0, 0; i+5 <= len(data); i, n = i+5, n+1 {
			if n%k == 0 {
				clones = append(clones, frozen{tree: tr.Clone(), oracle: bruteIndex{
					rects: append([]space.Rect(nil), oracle.rects...),
					ids:   append([]int(nil), oracle.ids...),
				}})
			}
			op := data[i]
			c := func(j int) float64 { return float64(data[i+1+j]) / 8 }
			switch {
			case op%3 != 0 || len(live) == 0: // insert
				rect := space.Rect{
					space.Span(c(0), c(0)+c(1)+0.125),
					space.Span(c(2), c(2)+c(3)+0.125),
				}
				if err := tr.Insert(rect, next); err != nil {
					t.Fatalf("insert: %v", err)
				}
				oracle.insert(rect, next)
				live = append(live, item{rect, next})
				next++
			default: // delete
				j := int(data[i+1]) % len(live)
				it := live[j]
				if !tr.Delete(it.rect, it.id) {
					t.Fatal("delete of live item failed")
				}
				oracle.remove(it.rect, it.id)
				live = append(live[:j], live[j+1:]...)
			}
		}
		clones = append(clones, frozen{tree: tr, oracle: oracle})
		for ci, cl := range clones {
			if cl.tree.Len() != len(cl.oracle.ids) {
				t.Fatalf("tree %d: Len %d, want %d", ci, cl.tree.Len(), len(cl.oracle.ids))
			}
			if err := cl.tree.checkInvariants(); err != nil {
				t.Fatalf("tree %d: %v", ci, err)
			}
			// Probe a grid of points against the oracle.
			for x := 0.0; x <= 32; x += 7.5 {
				for y := 0.0; y <= 32; y += 7.5 {
					p := space.Point{x, y}
					sameIDs(t, cl.tree.SearchPoint(p), cl.oracle.searchPoint(p), fmt.Sprintf("tree %d, point %v", ci, p))
				}
			}
		}
	})
}

// FuzzClampRect checks that clamping preserves containment for finite
// query points.
func FuzzClampRect(f *testing.F) {
	f.Add(0.0, 1.0, 0.5)
	f.Add(math.Inf(-1), 5.0, -100.0)
	f.Add(2.0, math.Inf(1), 1e17)
	f.Fuzz(func(t *testing.T, lo, hi, x float64) {
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsNaN(x) {
			t.Skip()
		}
		if math.Abs(x) >= maxCoord {
			t.Skip()
		}
		r := space.Rect{{Lo: lo, Hi: hi}}
		c := clampRect(r)
		if r.Contains(space.Point{x}) != c.Contains(space.Point{x}) {
			t.Fatalf("clamp changed containment of %v in %v → %v", x, r, c)
		}
	})
}
