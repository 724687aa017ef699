package core

import (
	"slices"
	"testing"

	"repro/internal/noloss"
	"repro/internal/topology"
)

// TestGroupTableNodesGrid: for grid groups, a group's member nodes are its
// membership vector translated through the world's subscriber index —
// ascending, one node per member — and memberOf agrees with them, also for
// a node that holds no subscription.
func TestGroupTableNodesGrid(t *testing.T) {
	checkGroupTableNodes(t, Config{Groups: 20, CellBudget: 400})
}

// TestGroupTableNodesNoLoss is TestGroupTableNodesGrid for No-Loss groups.
func TestGroupTableNodesNoLoss(t *testing.T) {
	checkGroupTableNodes(t, Config{Groups: 20, NoLoss: &noloss.Config{PoolSize: 300, Iterations: 2, Seeds: 16}})
}

func checkGroupTableNodes(t *testing.T, cfg Config) {
	t.Helper()
	w, train := testWorld(t, 300, 88)
	e, err := NewFromWorld(w, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gt := e.groups
	outsider := pickNonSubscriber(e, e.world)
	if _, ok := e.world.SubscriberIndex(outsider); ok {
		t.Fatal("every node subscribes")
	}
	for g, nodes := range gt.nodes {
		if len(nodes) != gt.members[g].Count() {
			t.Fatalf("group %d: %d nodes for %d members", g, len(nodes), gt.members[g].Count())
		}
		if !slices.IsSorted(nodes) {
			t.Fatalf("group %d nodes not ascending: %v", g, nodes)
		}
		in := map[topology.NodeID]bool{}
		for _, n := range nodes {
			in[n] = true
		}
		for _, n := range e.world.SubscriberNodes {
			if gt.memberOf(g, n) != in[n] {
				t.Fatalf("group %d: memberOf(%d) = %v, nodes say %v", g, n, !in[n], in[n])
			}
		}
		if gt.memberOf(g, outsider) {
			t.Fatalf("group %d holds non-subscriber %d", g, outsider)
		}
	}
}
