package faultnet

import (
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/netif/nettest"
	"cmtos/internal/udpnet"
)

// netemPair starts a two-host emulated network shaped by the conformance
// options.
func netemPair(t *testing.T, o nettest.Options) *netem.Network {
	nw := netem.New(clock.System{})
	for _, id := range []core.HostID{1, 2} {
		if err := nw.AddHost(id, nil); err != nil {
			t.Fatalf("AddHost: %v", err)
		}
	}
	cfg := netem.LinkConfig{Bandwidth: 50e6, QueueLen: 256}
	if o.PaceBps > 0 {
		cfg.Bandwidth = o.PaceBps
	}
	if o.Damage {
		cfg.BitErrorRate = 2e-4
	}
	if err := nw.AddLink(1, 2, cfg); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if err := nw.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return nw
}

// TestConformanceTransparent runs the substrate conformance suite
// through a fault injector with no faults configured: the wrapper must
// be invisible.
func TestConformanceTransparent(t *testing.T) {
	nettest.Run(t, func(t *testing.T, o nettest.Options) *nettest.Harness {
		nw := netemPair(t, o)
		fn := Wrap(nw, Options{Seed: 1})
		return &nettest.Harness{A: fn, B: fn, HostA: 1, HostB: 2, Close: fn.Close}
	})
}

// TestSendBorrowsPayloadUnderFaults arms the stages that keep a packet
// past the Send call that brought it — delay spikes and reordering — plus
// duplication, and runs the borrow check through the injector: whatever it
// releases later must be its own copy, not the caller's recycled buffer.
// Over netem the inner substrate is driven packet by packet, over udpnet
// (where sockets are available) through SendBatch with its survivors
// re-batched.
func TestSendBorrowsPayloadUnderFaults(t *testing.T) {
	arm := func(inner netif.Network) *Network {
		fn := Wrap(inner, Options{Seed: 7})
		fn.SetDelay(0.3, 3*time.Millisecond)
		fn.SetReorder(0.3)
		fn.SetDuplicate(0.3)
		return fn
	}
	t.Run("netem", func(t *testing.T) {
		nettest.SendBorrowsPayload(t, func(t *testing.T, o nettest.Options) *nettest.Harness {
			nw := netemPair(t, o)
			fn := arm(nw)
			return &nettest.Harness{A: fn, B: fn, HostA: 1, HostB: 2, Close: fn.Close}
		})
	})
	t.Run("udpnet", func(t *testing.T) {
		nettest.SendBorrowsPayload(t, func(t *testing.T, o nettest.Options) *nettest.Harness {
			mk := func(id core.HostID) *udpnet.Network {
				n, err := udpnet.New(udpnet.Config{Local: id, Listen: "127.0.0.1:0"})
				if err != nil {
					t.Skipf("UDP sockets unavailable: %v", err)
				}
				return n
			}
			a, b := mk(1), mk(2)
			if err := a.AddPeer(2, b.Addr().String()); err != nil {
				t.Fatalf("AddPeer: %v", err)
			}
			fn := arm(a)
			return &nettest.Harness{A: fn, B: b, HostA: 1, HostB: 2, Close: func() { fn.Close(); b.Close() }}
		})
	})
}
