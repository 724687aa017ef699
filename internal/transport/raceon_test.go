//go:build race

package transport_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
