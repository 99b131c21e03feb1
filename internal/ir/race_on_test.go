//go:build race

package ir_test

// raceEnabled reports that this binary was built with the race detector,
// which disables sync.Pool caching and skews allocation counts.
const raceEnabled = true
