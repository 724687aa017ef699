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
// When the second byte is present and odd, the inserts before the first
// delete are bulk-loaded by Build instead of inserted one by one. Inserted
// sides are bounded, half-unbounded or full wildcards, and the probe points
// reach far outside the extent of the bounded ones.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0})
	f.Add([]byte{255, 1, 0, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{3, 1, 0x3d, 9, 40, 200, 7, 0xf1, 60, 3, 90, 44, 0x22, 1, 2, 3, 4, 0x10, 5, 6, 7, 8, 3, 17, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		k := int(data[0]%8) + 1
		bulk := len(data) > 1 && data[1]%2 == 1
		data = data[min(len(data), 2):]
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
		// Consume 5 bytes per op: opcode + 4 coordinate bytes.
		i := 0
		rectAt := func(i int) space.Rect {
			c := func(j int) float64 { return float64(data[i+1+j]) / 8 }
			// Bits 2-5 of the opcode pick each axis's kind of side.
			r := make(space.Rect, 2)
			for d := range r {
				lo, hi := c(2*d), c(2*d)+c(2*d+1)+0.125
				switch data[i] >> (2 + 2*d) & 3 {
				case 0:
					r[d] = space.Span(lo, hi)
				case 1:
					r[d] = space.LeftOf(hi)
				case 2:
					r[d] = space.RightOf(lo)
				default:
					r[d] = space.Full()
				}
			}
			return r
		}
		if bulk {
			var rects []space.Rect
			for ; i+5 <= len(data) && (data[i]%3 != 0 || len(rects) == 0); i += 5 {
				rects = append(rects, rectAt(i))
			}
			var err error
			if tr, err = Build(2, rects); err != nil {
				t.Fatalf("build: %v", err)
			}
			for id, r := range rects {
				oracle.insert(r, id)
				live = append(live, item{r, id})
			}
		}
		next := len(live)
		for n := 0; i+5 <= len(data); i, n = i+5, n+1 {
			if n%k == 0 {
				clones = append(clones, frozen{tree: tr.Clone(), oracle: bruteIndex{
					rects: append([]space.Rect(nil), oracle.rects...),
					ids:   append([]int(nil), oracle.ids...),
				}})
			}
			if data[i]%3 != 0 || len(live) == 0 { // insert
				rect := rectAt(i)
				if err := tr.Insert(rect, next); err != nil {
					t.Fatalf("insert: %v", err)
				}
				oracle.insert(rect, next)
				live = append(live, item{rect, next})
				next++
				continue
			}
			j := int(data[i+1]) % len(live)
			it := live[j]
			if !tr.Delete(it.rect, it.id) {
				t.Fatal("delete of live item failed")
			}
			oracle.remove(it.rect, it.id)
			live = append(live[:j], live[j+1:]...)
		}
		clones = append(clones, frozen{tree: tr, oracle: oracle})
		// Probe a grid of points against the oracle, from inside the
		// bounded sides' extent to far outside it.
		coords := []float64{-1e290, -1e9, -3, 0, 7.5, 15, 22.5, 30, 40, 1e9, 1e290}
		for ci, cl := range clones {
			if cl.tree.Len() != len(cl.oracle.ids) {
				t.Fatalf("tree %d: Len %d, want %d", ci, cl.tree.Len(), len(cl.oracle.ids))
			}
			if err := cl.tree.checkInvariants(); err != nil {
				t.Fatalf("tree %d: %v", ci, err)
			}
			for _, x := range coords {
				for _, y := range coords {
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
