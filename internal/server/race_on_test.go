//go:build race

package server

// raceEnabled reports that this binary was built with the race detector,
// which disables sync.Pool caching and skews allocation counts.
const raceEnabled = true
