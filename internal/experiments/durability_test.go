package experiments

import (
	"strings"
	"testing"
)

func TestRunDurableTimeline(t *testing.T) {
	env := smallEnv(t, 92)
	var registered int
	res, err := RunDurable(env, t.TempDir(), DurableConfig{
		Groups: 12, CellBudget: 300, CrashAtAppend: 5,
		RegisterCloser: func(func()) { registered++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(res.Phases))
	}
	clean, crashed, recovered := res.Phases[0], res.Phases[1], res.Phases[2]

	if clean.Recovery.CheckpointLoaded || clean.Recovery.RecordsReplayed != 0 {
		t.Errorf("clean incarnation saw recovery: %+v", clean.Recovery)
	}
	if clean.Acked != len(env.Eval)/2 {
		t.Errorf("clean incarnation acked %d of %d", clean.Acked, len(env.Eval)/2)
	}
	if !crashed.Recovery.CheckpointLoaded {
		t.Error("crashed incarnation did not load the clean checkpoint")
	}
	if !crashed.Crashed {
		t.Error("crashed phase not marked crashed")
	}
	if crashed.Acked == 0 || crashed.Acked >= len(env.Eval)-len(env.Eval)/2 {
		t.Errorf("crash fired outside the stream: acked %d of %d",
			crashed.Acked, len(env.Eval)-len(env.Eval)/2)
	}
	if recovered.Recovery.RecordsReplayed == 0 {
		t.Error("recovery incarnation replayed nothing")
	}
	if recovered.Recovery.Outstanding == 0 {
		t.Error("recovery incarnation redelivered no stranded publishes")
	}
	if recovered.Delivered <= crashed.Delivered {
		t.Errorf("redelivery did not raise the preserved delivery counter: %d ≤ %d",
			recovered.Delivered, crashed.Delivered)
	}
	// RegisterCloser fires twice per incarnation (open + close).
	if registered != 6 {
		t.Errorf("RegisterCloser fired %d times, want 6", registered)
	}

	var sb strings.Builder
	if err := RenderDurable(&sb, "t", res); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"clean", "crashed", "recovered", "replayed"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}
}
