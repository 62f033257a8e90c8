//go:build race

package kmeans

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
