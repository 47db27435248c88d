//go:build race

package flitsim

// raceEnabled reports whether the test binary runs under the race detector.
const raceEnabled = true
