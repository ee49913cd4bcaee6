//go:build race

package main

// raceEnabled reports whether the race detector is instrumenting this
// build. It slows the data path several times over, so on two CPUs the
// full-rate workloads overrun their sinks; the smoke test then checks
// integrity and teardown but tolerates OSDUs that never arrived.
const raceEnabled = true
