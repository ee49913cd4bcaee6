package relay_test

import (
	"os"
	"testing"

	"cmtos/internal/transport"
)

// TestMain turns on the transport's release poison for the whole suite: a
// buffer used after its release then corrupts an OSDU and fails one of the
// exact-delivery assertions here.
func TestMain(m *testing.M) {
	transport.PoisonOnRelease = true
	os.Exit(m.Run())
}
