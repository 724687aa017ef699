package pubsub_test

import (
	"errors"
	"strings"
	"testing"

	pubsub "repro"
)

// The facade tests exercise the library the way a downstream user would:
// only through the root package's exported names.

func buildWorld(t testing.TB, subs int, seed int64) (*pubsub.World, []pubsub.Event) {
	t.Helper()
	g, err := pubsub.GenerateTopology(pubsub.Eval600)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pubsub.NewStockWorld(g, pubsub.StockConfig{
		NumSubscriptions: subs, PubModes: 1, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w, w.Events(800, seed+1)
}

func TestFacadeEndToEnd(t *testing.T) {
	w, train := buildWorld(t, 300, 90)
	engine, err := pubsub.NewEngineFromWorld(w, train, pubsub.EngineConfig{
		Groups:     25,
		Algorithm:  &pubsub.KMeans{Variant: pubsub.Forgy},
		CellBudget: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if engine.NumGroups() == 0 {
		t.Fatal("no groups")
	}
	multicasts := 0
	for _, ev := range w.Events(100, 92) {
		d, costs, err := engine.Publish(ev)
		if err != nil {
			t.Fatal(err)
		}
		if costs.AppLevel < costs.Network-1e-9 {
			t.Fatal("cost ordering broken")
		}
		if d.Method == pubsub.NetworkMulticastMethod {
			multicasts++
			info := engine.Group(d.Group)
			if len(info.Nodes) == 0 {
				t.Fatal("empty group routed")
			}
		}
	}
	if multicasts == 0 {
		t.Error("nothing multicast")
	}
}

func TestFacadeIntervalHelpers(t *testing.T) {
	r := pubsub.Rect{
		pubsub.Span(0, 1),
		pubsub.LeftOf(5),
		pubsub.RightOf(2),
		pubsub.FullInterval(),
	}
	if !r.Contains(pubsub.Point{0.5, -100, 3, 42}) {
		t.Error("facade rect containment broken")
	}
	if fr := pubsub.FullRect(3); fr.Dim() != 3 {
		t.Error("FullRect wrong")
	}
}

func TestFacadeDecompose(t *testing.T) {
	rects, err := pubsub.Decompose([]pubsub.Predicate{
		{pubsub.Span(0, 1), pubsub.Span(3, 4)},
		{pubsub.Span(10, 20)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rects) != 2 {
		t.Fatalf("rects = %d", len(rects))
	}
}

func TestFacadeCostModel(t *testing.T) {
	g, err := pubsub.GenerateTopology(pubsub.Net100)
	if err != nil {
		t.Fatal(err)
	}
	m := pubsub.NewCostModel(g)
	if m.BroadcastCost(0) <= 0 {
		t.Error("broadcast cost non-positive")
	}
	if m.Dist(0, 0) != 0 {
		t.Error("self distance non-zero")
	}
	o := m.BuildOverlay([]pubsub.NodeID{1, 2, 3})
	if m.ALMCost(0, o) <= 0 {
		t.Error("ALM cost non-positive")
	}
}

func TestFacadeBroker(t *testing.T) {
	w, train := buildWorld(t, 200, 94)
	engine, err := pubsub.NewEngineFromWorld(w, train, pubsub.EngineConfig{
		Groups: 10, CellBudget: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pubsub.NewBroker(engine, pubsub.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events(50, 95) {
		b.Publish(ev)
	}
	b.Close()
	st := b.Stats()
	if st.Published != 50 {
		t.Errorf("Published = %d", st.Published)
	}
}

// TestFacadeDurable drives the durability surface end to end through the
// facade: a durable broker, a scheduled crash, and a recovery that
// redelivers the stranded publishes.
func TestFacadeDurable(t *testing.T) {
	w, train := buildWorld(t, 200, 96)
	dir := t.TempDir()
	newEngine := func() *pubsub.Engine {
		engine, err := pubsub.NewEngineFromWorld(w, train, pubsub.EngineConfig{
			Groups: 10, CellBudget: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		return engine
	}

	inj := pubsub.NewCrashInjector(pubsub.CrashPlan{AtAppend: 120, Point: pubsub.CrashAfterAppend})
	b, err := pubsub.OpenBroker(dir, newEngine(),
		pubsub.WithDurableOptions(pubsub.DurableOptions{Crash: inj}))
	if err != nil {
		t.Fatal(err)
	}
	// Delivery acks append to the journal asynchronously, so which append
	// is the 120th — a publish's or an ack's — depends on scheduling. Keep
	// publishing until the crash surfaces through Publish: once any append
	// trips the plan the store is dead and the next publish must fail.
	crashed := 0
	for _, ev := range w.Events(500, 97) {
		if err := b.Publish(ev); err != nil {
			if !errors.Is(err, pubsub.ErrCrashed) {
				t.Fatalf("publish: %v", err)
			}
			crashed++
			break
		}
	}
	b.Close()
	if crashed == 0 {
		t.Fatal("scheduled crash never fired")
	}

	b2, err := pubsub.OpenBroker(dir, newEngine())
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	var rec pubsub.RecoveryStats = b2.Recovery()
	if rec.RecordsReplayed == 0 || rec.Outstanding == 0 {
		t.Errorf("recovery replayed nothing: %+v", rec)
	}
	if rec.CheckpointLoaded {
		t.Errorf("no checkpoint was ever committed, yet one loaded: %+v", rec)
	}
}

func TestFacadeHealth(t *testing.T) {
	w, train := buildWorld(t, 200, 96)
	engine, err := pubsub.NewEngineFromWorld(w, train, pubsub.EngineConfig{
		Groups: 10, CellBudget: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := pubsub.ParseAdmissionPolicy("reject")
	if err != nil {
		t.Fatal(err)
	}
	if pol != pubsub.RejectNewestPolicy {
		t.Fatalf("ParseAdmissionPolicy(reject) = %v", pol)
	}
	h, err := pubsub.NewHealth(pubsub.HealthConfig{
		MaxInflight: 64,
		Policy:      pubsub.BlockPolicy,
		Seed:        96,
	})
	if err != nil {
		t.Fatal(err)
	}
	decisions := 0
	// WithDecideWorkers(1) keeps the observer single-threaded.
	b, err := pubsub.NewBroker(engine, pubsub.WithWorkers(2), pubsub.WithDecideWorkers(1),
		pubsub.WithHealth(h),
		pubsub.WithDecisionObserver(func(seq int64, ev pubsub.Event, d pubsub.Decision, c pubsub.DeliveryCosts) {
			decisions++
		}))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events(50, 97) {
		if err := b.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	if decisions != 50 {
		t.Errorf("decision observer saw %d events, want 50", decisions)
	}
	if inf := h.Admission.Inflight(); inf != 0 {
		t.Errorf("inflight %d after close, want 0", inf)
	}
	if st := b.Stats(); st.Rejected != 0 || st.Shed != 0 {
		t.Errorf("lossless run rejected %d shed %d", st.Rejected, st.Shed)
	}
}

func TestFacadeCustomWorldAndPredicates(t *testing.T) {
	g, err := pubsub.GenerateTopology(pubsub.Net100)
	if err != nil {
		t.Fatal(err)
	}
	// A "blue chip" style composite subscription decomposed into rects.
	rects, err := pubsub.Decompose([]pubsub.Predicate{
		{pubsub.Span(0, 1), pubsub.Span(4, 5)}, // two name buckets
		{pubsub.Span(90, 110)},                 // price band
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var host pubsub.NodeID
	for i := 0; i < g.NumNodes(); i++ {
		if g.Node(pubsub.NodeID(i)).Kind != 0 { // stub node
			host = pubsub.NodeID(i)
			break
		}
	}
	var subs []pubsub.Subscription
	for _, r := range rects {
		subs = append(subs, pubsub.Subscription{Owner: host, Rect: r})
	}
	w, err := pubsub.NewCustomWorld(g, []pubsub.Axis{
		{Lo: 0, Hi: 10, Cells: 10},
		{Lo: 0, Hi: 200, Cells: 20},
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumSubscribers() != 1 {
		t.Fatalf("NumSubscribers = %d", w.NumSubscribers())
	}
	// The default event source works and stays in bounds.
	evs := w.Events(20, 96)
	if len(evs) != 20 {
		t.Fatal("custom world events failed")
	}
}

func TestFacadePersistenceRoundTrip(t *testing.T) {
	g, err := pubsub.GenerateTopology(pubsub.Net100)
	if err != nil {
		t.Fatal(err)
	}
	var topo strings.Builder
	if err := pubsub.WriteTopology(&topo, g); err != nil {
		t.Fatal(err)
	}
	g2, err := pubsub.ReadTopology(strings.NewReader(topo.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Fatal("topology round trip changed size")
	}

	w, err := pubsub.NewStockWorld(g2, pubsub.StockConfig{NumSubscriptions: 100, PubModes: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var subs strings.Builder
	if err := pubsub.WriteSubscriptions(&subs, w.Subs); err != nil {
		t.Fatal(err)
	}
	loaded, err := pubsub.ReadSubscriptions(strings.NewReader(subs.String()))
	if err != nil {
		t.Fatal(err)
	}
	w2, err := pubsub.NewCustomWorld(g2, w.Axes, loaded)
	if err != nil {
		t.Fatal(err)
	}

	evs := w.Events(100, 6)
	var trace strings.Builder
	if err := pubsub.WriteEvents(&trace, evs); err != nil {
		t.Fatal(err)
	}
	evs2, err := pubsub.ReadEvents(strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}

	// The fully round-tripped world drives an engine end to end.
	engine, err := pubsub.NewEngineFromWorld(w2, evs2, pubsub.EngineConfig{
		Groups: 10, CellBudget: 200, DynamicMethod: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs2[:30] {
		if _, _, err := engine.Publish(ev); err != nil {
			t.Fatal(err)
		}
	}

	var dot strings.Builder
	if err := pubsub.WriteTopologyDOT(&dot, g2); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dot.String(), "graph topology {") {
		t.Error("DOT output malformed")
	}
}
