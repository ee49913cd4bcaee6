package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// fakeNet is a minimal in-memory substrate for entity-internal tests:
// sends are recorded, nothing is delivered.
type fakeNet struct {
	mu   sync.Mutex
	sent []netif.Packet
}

func (f *fakeNet) Send(p netif.Packet) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sent = append(f.sent, p)
	return nil
}
func (f *fakeNet) SetHandler(core.HostID, netif.Handler) error   { return nil }
func (f *fakeNet) Route(s, d core.HostID) ([]core.HostID, error) { return []core.HostID{s, d}, nil }
func (f *fakeNet) MTU() int                                      { return 0 }
func (f *fakeNet) Close()                                        {}
func (f *fakeNet) PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error) {
	return qos.Capability{MaxThroughput: 1e6}, nil
}

// TestServedCacheBounded is the regression test for the replay cache: it
// must stay within ServedCap and expire entries after ServedTTL instead
// of growing for the life of the entity.
func TestServedCacheBounded(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	e, err := NewEntity(1, clk, &fakeNet{}, nil, Config{
		ServedCap: 4, ServedTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 20; i++ {
		key := servedKey{host: 2, tok: uint32(i + 1)}
		if _, dup := e.servedBegin(key); dup {
			t.Fatalf("fresh key %d reported as duplicate", i)
		}
		e.servedPut(key, &pdu.Control{Kind: pdu.KindRemoteConnResult, Token: uint32(i + 1)})
	}
	e.mu.Lock()
	n := len(e.served)
	e.mu.Unlock()
	if n > 4 {
		t.Fatalf("served cache grew to %d entries, cap is 4", n)
	}

	// A key within the cap is still suppressed (replayed)...
	if cached, dup := e.servedBegin(servedKey{host: 2, tok: 20}); !dup || cached == nil {
		t.Fatalf("recent key must replay its cached result (dup=%v cached=%v)", dup, cached)
	}
	// ...but after the TTL passes, the same key is treated as new.
	clk.Advance(2 * time.Second)
	if _, dup := e.servedBegin(servedKey{host: 3, tok: 1}); dup {
		t.Fatalf("unrelated key reported as duplicate")
	}
	e.mu.Lock()
	n = len(e.served)
	e.mu.Unlock()
	if n != 1 {
		t.Fatalf("expired entries not evicted: %d left, want 1", n)
	}
	if _, dup := e.servedBegin(servedKey{host: 2, tok: 20}); dup {
		t.Fatalf("expired key must be forgotten")
	}
}

// TestDispatchBounded is the regression test for handler dispatch: a
// flood of orchestration PDUs must occupy at most DispatchWorkers
// goroutines and at most DispatchQueue queued PDUs; the excess is
// dropped (and counted), not spawned.
func TestDispatchBounded(t *testing.T) {
	reg := stats.NewRegistry()
	e, err := NewEntity(1, clock.System{}, &fakeNet{}, nil, Config{
		DispatchWorkers: 2, DispatchQueue: 8, Stats: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var running, peak atomic.Int64
	release := make(chan struct{})
	handled := make(chan struct{}, 200)
	e.SetOrchHandler(func(from core.HostID, o *pdu.Orch) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		<-release
		running.Add(-1)
		handled <- struct{}{}
	})

	raw := (&pdu.Orch{Op: pdu.OrchSetup, Session: 7}).Marshal(nil)
	const flood = 100
	for i := 0; i < flood; i++ {
		e.onPacket(netif.Packet{Src: 2, Dst: 1, Prio: netif.PrioControl, Payload: raw})
	}
	// Give the workers a moment to pick up work, then release everything.
	time.Sleep(50 * time.Millisecond)
	close(release)

	// Everything that made it into the queue (at least DispatchQueue, at
	// most DispatchQueue+DispatchWorkers depending on how fast workers
	// dequeued during the flood) is handled; the rest was dropped.
	done := 0
	timeout := time.After(5 * time.Second)
	for done < 8 {
		select {
		case <-handled:
			done++
		case <-timeout:
			t.Fatalf("only %d PDUs handled, want at least 8", done)
		}
	}
	for drained := false; !drained; {
		select {
		case <-handled:
			done++
		case <-time.After(200 * time.Millisecond):
			drained = true
		}
	}
	if done > 2+8 {
		t.Fatalf("handled %d PDUs, want at most %d", done, 2+8)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("%d handlers ran concurrently, want at most 2", p)
	}
	if got := reg.Snapshot().Counters["host/1/dispatch_dropped"]; got != uint64(flood-done) {
		t.Fatalf("dispatch_dropped = %d, want %d", got, flood-done)
	}
}
