//go:build race

package rtree

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
