//go:build race

package crowd

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
