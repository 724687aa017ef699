//go:build !race

package transport_test

// raceEnabled reports whether the race detector instruments this build.
// runtime.MemStats counts the detector's shadow allocations, so the
// allocation guard only runs in uninstrumented builds.
const raceEnabled = false
