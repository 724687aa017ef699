//go:build !race

package transport

// RaceEnabled reports whether the race detector instruments this build.
// runtime.MemStats counts the detector's shadow allocations, so the
// allocation guards only run in uninstrumented builds. It is exported
// for the external test package.
const RaceEnabled = false
