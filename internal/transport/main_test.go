package transport

import (
	"os"
	"testing"
)

// TestMain runs the whole suite with released buffers poisoned, so a use
// after release anywhere on the data path fails one of the suite's exact
// 0..N-1 / byte-identical delivery assertions instead of passing by luck.
func TestMain(m *testing.M) {
	PoisonOnRelease = true
	os.Exit(m.Run())
}
