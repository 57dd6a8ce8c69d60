//go:build race

package model_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation forces closures and locals onto the heap, so
// allocation-count assertions are meaningless under -race.
const raceEnabled = true
