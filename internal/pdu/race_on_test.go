//go:build race

package pdu

// raceEnabled reports whether the race detector is instrumenting this
// build; its shadow-memory bookkeeping allocates, so strict
// zero-allocation assertions are skipped under -race.
const raceEnabled = true
