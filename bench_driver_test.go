package pubsub_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestBenchDriver vets and unit-tests the benchmark driver, bench/, a
// nested module that `go test ./...` does not descend into, against the
// tree's current internal packages and in the environment bench/run.sh
// builds it in. A change that breaks the driver — it calls
// Engine.NewSPTView, DecisionSnapshot.DecideInto, broker.Shard.DecideSeq,
// transport.Backend.PublishSeq and WithDecisionObserver — fails here
// instead of in the benchmark run.
func TestBenchDriver(t *testing.T) {
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-short", "-count=1", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Dir = "bench"
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in bench/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
