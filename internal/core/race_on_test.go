//go:build race

package core

// raceEnabled reports whether the race detector is on: under it sync.Pool
// drops a quarter of its Puts, so allocation guards do not apply.
const raceEnabled = true
