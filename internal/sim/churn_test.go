package sim

import (
	"reflect"
	"testing"

	"repro/internal/topology"
	"repro/internal/workload"
)

func churnWorld(t *testing.T) *workload.World {
	t.Helper()
	cfg := topology.Net100
	cfg.Seed = 900
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.NewStockWorld(g, workload.StockConfig{
		NumSubscriptions: 100, PubModes: 1, Seed: 901,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGenerateChurnValidation(t *testing.T) {
	w := churnWorld(t)
	if _, err := GenerateChurn(nil, ChurnConfig{Rate: 1, Events: 10}); err == nil {
		t.Error("nil world accepted")
	}
	if _, err := GenerateChurn(w, ChurnConfig{Rate: 0, Events: 10}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := GenerateChurn(w, ChurnConfig{Rate: 1, Events: 0}); err == nil {
		t.Error("zero horizon accepted")
	}
}

func TestGenerateChurnSchedule(t *testing.T) {
	w := churnWorld(t)
	cfg := ChurnConfig{Rate: 0.5, Events: 2000, Seed: 902}
	ops, err := GenerateChurn(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Poisson with rate 0.5/event over 2000 events ⇒ ~1000 ops; accept a
	// generous band.
	if len(ops) < 700 || len(ops) > 1300 {
		t.Fatalf("got %d ops, expected ≈1000", len(ops))
	}

	alive, peak, subs, unsubs := 0, 0, 0, 0
	last := 0
	for i, op := range ops {
		if op.BeforeEvent < last || op.BeforeEvent >= cfg.Events {
			t.Fatalf("op %d anchored at %d (prev %d, horizon %d)", i, op.BeforeEvent, last, cfg.Events)
		}
		last = op.BeforeEvent
		if op.Subscribe {
			if op.Sub.Rect.Dim() != w.Dim {
				t.Fatalf("op %d: subscription dim %d", i, op.Sub.Rect.Dim())
			}
			if op.Sub.Owner < 0 || int(op.Sub.Owner) >= w.Graph.NumNodes() {
				t.Fatalf("op %d: owner %d out of range", i, op.Sub.Owner)
			}
			subs++
			alive++
			peak = max(peak, alive)
		} else {
			if op.Target < 0 || op.Target >= alive {
				t.Fatalf("op %d: unsubscribe target %d with %d alive", i, op.Target, alive)
			}
			unsubs++
			alive--
		}
	}
	if subs == 0 || unsubs == 0 {
		t.Fatalf("degenerate mix: %d subscribes, %d unsubscribes", subs, unsubs)
	}
	if peak <= 0 {
		t.Fatalf("peak alive %d", peak)
	}

	// Deterministic from the seed.
	again, err := GenerateChurn(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ops, again) {
		t.Fatal("schedule not reproducible from seed")
	}

	// A different seed produces a different schedule.
	cfg.Seed++
	other, err := GenerateChurn(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ops, other) {
		t.Fatal("seed does not vary the schedule")
	}
}
