//go:build !race

package model_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
