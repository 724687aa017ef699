package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as the command itself: with
// PUBSUB_BENCH_ARGS set, it runs main on those arguments instead of the
// tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PUBSUB_BENCH_ARGS"); ok {
		os.Args = append([]string{"pubsub-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownExperimentPrintsNothing runs the command on a mode it no
// longer has: it must exit 2 with the usage before printing anything to
// stdout, so it cannot look as if the run started.
func TestUnknownExperimentPrintsNothing(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PUBSUB_BENCH_ARGS=recovery")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit = %v, want status 2; stderr:\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout = %q, want nothing", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown experiment "recovery"`) || !strings.Contains(stderr.String(), "usage: pubsub-bench") {
		t.Errorf("stderr lacks the error and the usage:\n%s", stderr.String())
	}
}
