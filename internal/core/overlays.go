package core

import (
	"sync/atomic"

	"repro/internal/multicast"
	"repro/internal/topology"
)

// overlayTable lazily materialises the application-level multicast overlays
// of a group set. Eagerly Prim-ing an overlay MST (one Dijkstra per member)
// for every group made engine construction O(K · members²) before the first
// event could be decided — prohibitive at large subscriber counts even
// though only ALM cost queries ever read an overlay. The table defers each
// build to the first costing of its group, on whichever goroutine gets
// there first.
//
// Concurrency: cells are atomic pointers filled with a compare-and-swap.
// Model.BuildOverlay reads only the model's shared tree cache and is
// deterministic, so racing builders compute identical overlays and
// whichever CAS wins is indistinguishable. The table is immutable after
// construction (nodes must not be mutated), so a single table is shared by
// the engine and every snapshot taken of the group generation it
// describes.
type overlayTable struct {
	model *multicast.Model
	nodes [][]topology.NodeID
	cells []atomic.Pointer[multicast.Overlay]
}

func newOverlayTable(model *multicast.Model, nodes [][]topology.NodeID) *overlayTable {
	return &overlayTable{
		model: model,
		nodes: nodes,
		cells: make([]atomic.Pointer[multicast.Overlay], len(nodes)),
	}
}

// get returns group g's overlay, building and caching it on first use.
func (t *overlayTable) get(g int) multicast.Overlay {
	if o := t.cells[g].Load(); o != nil {
		return *o
	}
	o := t.model.BuildOverlay(t.nodes[g])
	if t.cells[g].CompareAndSwap(nil, &o) {
		return o
	}
	return *t.cells[g].Load()
}
