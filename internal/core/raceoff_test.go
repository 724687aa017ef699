//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build.
// testing.AllocsPerRun counts the detector's shadow allocations, so the
// allocation bounds only hold in uninstrumented builds.
const raceEnabled = false
