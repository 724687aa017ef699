//go:build race

package transport

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = true
