//go:build race

package core_test

// raceEnabled reports that this binary was built with the race detector,
// which instruments memory and skews allocation measurements.
const raceEnabled = true
