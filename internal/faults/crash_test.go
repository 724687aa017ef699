package faults

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestCrashInjectorFiresOnce pins the one-shot contract: the scheduled
// point fires at exactly the AtAppend-th append, and from then on the
// injector is dead — every later append reports CrashBeforeAppend (a dead
// process writes nothing) and every checkpoint install dies too.
func TestCrashInjectorFiresOnce(t *testing.T) {
	ci := NewCrashInjector(CrashPlan{AtAppend: 3, Point: CrashTornAppend})
	for i := 1; i <= 2; i++ {
		if p := ci.OnAppend(); p != 0 {
			t.Fatalf("append %d: crash point %v before schedule", i, p)
		}
	}
	if ci.Dead() {
		t.Fatal("dead before the scheduled append")
	}
	if p := ci.OnAppend(); p != CrashTornAppend {
		t.Fatalf("append 3: got %v, want %v", p, CrashTornAppend)
	}
	if !ci.Dead() {
		t.Fatal("not dead after the scheduled point fired")
	}
	for i := 4; i <= 6; i++ {
		if p := ci.OnAppend(); p != CrashBeforeAppend {
			t.Fatalf("append %d after death: got %v, want %v", i, p, CrashBeforeAppend)
		}
	}
	if !ci.OnCheckpoint() {
		t.Fatal("checkpoint survived on a dead injector")
	}
}

// TestCrashInjectorConcurrentFiresExactlyOnce drives OnAppend from many
// goroutines (the store's appenders race in production) and checks the
// scheduled point is observed by exactly one of them.
func TestCrashInjectorConcurrentFiresExactlyOnce(t *testing.T) {
	ci := NewCrashInjector(CrashPlan{AtAppend: 50, Point: CrashAfterAppend})
	var wg sync.WaitGroup
	var fired atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if ci.OnAppend() == CrashAfterAppend {
					fired.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != 1 {
		t.Fatalf("scheduled point fired %d times in 200 appends, want exactly 1", n)
	}
	if !ci.Dead() {
		t.Fatal("injector alive after firing")
	}
}

// TestCrashInjectorNilAndZeroPlan: a nil injector and a zero plan are both
// inert — they never fire and never die.
func TestCrashInjectorNilAndZeroPlan(t *testing.T) {
	var nilCI *CrashInjector
	if p := nilCI.OnAppend(); p != 0 {
		t.Fatalf("nil injector returned %v", p)
	}
	if nilCI.OnCheckpoint() || nilCI.Dead() {
		t.Fatal("nil injector not inert")
	}
	zero := NewCrashInjector(CrashPlan{})
	for i := 0; i < 100; i++ {
		if p := zero.OnAppend(); p != 0 {
			t.Fatalf("zero plan fired %v at append %d", p, i+1)
		}
	}
	if zero.OnCheckpoint() || zero.Dead() {
		t.Fatal("zero plan not inert")
	}
}

// TestCrashInjectorMidCheckpointIgnoresAppends: a mid-checkpoint plan must
// not fire on the append path regardless of AtAppend, and must fire at the
// first checkpoint install.
func TestCrashInjectorMidCheckpointIgnoresAppends(t *testing.T) {
	ci := NewCrashInjector(CrashPlan{AtAppend: 2, Point: CrashMidCheckpoint})
	for i := 0; i < 10; i++ {
		if p := ci.OnAppend(); p != 0 {
			t.Fatalf("append %d fired %v for a mid-checkpoint plan", i+1, p)
		}
	}
	if !ci.OnCheckpoint() {
		t.Fatal("mid-checkpoint plan did not fire at checkpoint install")
	}
	if p := ci.OnAppend(); p != CrashBeforeAppend {
		t.Fatalf("append after checkpoint death: got %v, want %v", p, CrashBeforeAppend)
	}
}
