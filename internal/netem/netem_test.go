package netem

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
)

var sys clock.System

// collector accumulates delivered packets for assertions.
type collector struct {
	mu   sync.Mutex
	pkts []Packet
	ch   chan Packet
}

func newCollector() *collector {
	return &collector{ch: make(chan Packet, 4096)}
}

func (c *collector) handle(p Packet) {
	c.mu.Lock()
	c.pkts = append(c.pkts, p)
	c.mu.Unlock()
	select {
	case c.ch <- p:
	default:
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) []Packet {
	t.Helper()
	deadline := time.After(timeout)
	for {
		if c.count() >= n {
			c.mu.Lock()
			defer c.mu.Unlock()
			out := make([]Packet, len(c.pkts))
			copy(out, c.pkts)
			return out
		}
		select {
		case <-deadline:
			t.Fatalf("timed out waiting for %d packets (have %d)", n, c.count())
		case <-time.After(time.Millisecond):
		}
	}
}

// fastLink is a high-bandwidth, low-delay config for functional tests.
func fastLink() LinkConfig {
	return LinkConfig{Bandwidth: 100e6, Delay: 100 * time.Microsecond}
}

// twoHosts builds h1 -- h2 and returns the network and h2's collector.
func twoHosts(t *testing.T, cfg LinkConfig) (*Network, *collector) {
	t.Helper()
	n := New(sys)
	sink := newCollector()
	if err := n.AddHost(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddHost(2, sink.handle); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(1, 2, cfg); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, sink
}

func TestDeliverySingleHop(t *testing.T) {
	n, sink := twoHosts(t, fastLink())
	payload := []byte("hello, media")
	if err := n.Send(Packet{Src: 1, Dst: 2, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	pkts := sink.wait(t, 1, time.Second)
	if !bytes.Equal(pkts[0].Payload, payload) {
		t.Fatalf("payload = %q", pkts[0].Payload)
	}
	if pkts[0].Damaged {
		t.Fatal("clean link damaged the packet")
	}
}

func TestDeliveryPreservesOrder(t *testing.T) {
	n, sink := twoHosts(t, fastLink())
	const count = 200
	for i := 0; i < count; i++ {
		if err := n.Send(Packet{Src: 1, Dst: 2, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	pkts := sink.wait(t, count, 5*time.Second)
	for i, p := range pkts[:count] {
		if p.Payload[0] != byte(i) {
			t.Fatalf("packet %d has payload %d (reordered)", i, p.Payload[0])
		}
	}
}

func TestMultiHopForwarding(t *testing.T) {
	n := New(sys)
	sink := newCollector()
	for id := core.HostID(1); id <= 3; id++ {
		h := Handler(nil)
		if id == 3 {
			h = sink.handle
		}
		if err := n.AddHost(id, h); err != nil {
			t.Fatal(err)
		}
	}
	// Chain 1 -- 2 -- 3; no direct 1--3 link.
	if err := n.AddLink(1, 2, fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := n.AddLink(2, 3, fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	route, err := n.Route(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 3 || route[1] != 2 {
		t.Fatalf("route = %v, want [1 2 3]", route)
	}
	if err := n.Send(Packet{Src: 1, Dst: 3, Payload: []byte("via 2")}); err != nil {
		t.Fatal(err)
	}
	pkts := sink.wait(t, 1, time.Second)
	if string(pkts[0].Payload) != "via 2" {
		t.Fatalf("payload = %q", pkts[0].Payload)
	}
}

func TestShortestPathPreferred(t *testing.T) {
	// Diamond: 1--2--4 and 1--3--4 plus direct 1--4; route must be direct.
	n := New(sys)
	for id := core.HostID(1); id <= 4; id++ {
		if err := n.AddHost(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]core.HostID{{1, 2}, {2, 4}, {1, 3}, {3, 4}, {1, 4}} {
		if err := n.AddLink(pair[0], pair[1], fastLink()); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	route, err := n.Route(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) != 2 {
		t.Fatalf("route = %v, want direct [1 4]", route)
	}
}

func TestNoRouteError(t *testing.T) {
	n := New(sys)
	_ = n.AddHost(1, nil)
	_ = n.AddHost(2, nil)
	// No link.
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(Packet{Src: 1, Dst: 2}); err == nil {
		t.Fatal("Send with no route succeeded")
	}
	if _, err := n.Route(1, 2); err == nil {
		t.Fatal("Route with no path succeeded")
	}
}

func TestLoopbackDelivery(t *testing.T) {
	n := New(sys)
	sink := newCollector()
	_ = n.AddHost(1, sink.handle)
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Send(Packet{Src: 1, Dst: 1, Payload: []byte("self")}); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1, time.Second)
}

func TestPropagationDelayObserved(t *testing.T) {
	cfg := fastLink()
	cfg.Delay = 50 * time.Millisecond
	n, sink := twoHosts(t, cfg)
	start := time.Now()
	_ = n.Send(Packet{Src: 1, Dst: 2, Payload: []byte("x")})
	sink.wait(t, 1, time.Second)
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~50ms", elapsed)
	}
}

func TestBandwidthPacing(t *testing.T) {
	// 10 KB/s link, 10 packets of ~1032 bytes each ≈ 1s of serialisation.
	cfg := LinkConfig{Bandwidth: 10240 * 4, Delay: 0}
	n, sink := twoHosts(t, cfg)
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: make([]byte, 1000)})
	}
	sink.wait(t, 10, 5*time.Second)
	elapsed := time.Since(start)
	// 10 * 1032 bytes at 40960 B/s ≈ 252ms.
	if elapsed < 150*time.Millisecond {
		t.Fatalf("10 packets crossed a 40KB/s link in %v; pacing absent", elapsed)
	}
}

func TestBernoulliLossDropsRoughlyP(t *testing.T) {
	cfg := fastLink()
	cfg.Loss = Bernoulli{P: 0.3}
	cfg.Seed = 42
	cfg.QueueLen = 2048
	n, sink := twoHosts(t, cfg)
	const count = 1000
	for i := 0; i < count; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: []byte{1}})
	}
	// Wait for the link to drain: sent + dropped == count.
	deadline := time.After(5 * time.Second)
	for {
		st, err := n.Stats(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if st.Sent+st.Dropped+st.Overflows >= count {
			if st.Dropped < count/5 || st.Dropped > count/2 {
				t.Fatalf("dropped %d of %d, want ~30%%", st.Dropped, count)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("link never drained: %+v", st)
		case <-time.After(time.Millisecond):
		}
	}
	_ = sink
}

func TestGilbertElliottBursts(t *testing.T) {
	g := &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.2, PLossGood: 0.0, PLossBad: 0.9}
	r := rand.New(rand.NewSource(7))
	losses := 0
	maxRun, run := 0, 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if g.Drop(r) {
			losses++
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if losses == 0 {
		t.Fatal("GE model never dropped")
	}
	if maxRun < 3 {
		t.Fatalf("max loss burst = %d, want bursty (>=3)", maxRun)
	}
	// Steady state: pBad = 0.05/0.25 = 0.2 → loss ≈ 0.18.
	frac := float64(losses) / trials
	if frac < 0.10 || frac > 0.30 {
		t.Fatalf("loss fraction = %.3f, want ~0.18", frac)
	}
}

func TestBitErrorsDamagePayload(t *testing.T) {
	cfg := fastLink()
	cfg.BitErrorRate = 1e-3 // with 100-byte packets: ~55% damage probability
	cfg.Seed = 9
	n, sink := twoHosts(t, cfg)
	const count = 200
	orig := bytes.Repeat([]byte{0xAA}, 100)
	for i := 0; i < count; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: orig})
	}
	pkts := sink.wait(t, count, 5*time.Second)
	damaged := 0
	for _, p := range pkts {
		if p.Damaged {
			damaged++
			if bytes.Equal(p.Payload, orig) {
				t.Fatal("packet marked damaged but payload intact")
			}
		} else if !bytes.Equal(p.Payload, orig) {
			t.Fatal("payload altered without Damaged mark")
		}
	}
	if damaged == 0 {
		t.Fatal("no packets damaged at BER 1e-3")
	}
	// The original buffer must never be corrupted (copy-on-damage).
	if !bytes.Equal(orig, bytes.Repeat([]byte{0xAA}, 100)) {
		t.Fatal("sender's buffer was corrupted in place")
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	cfg := LinkConfig{Bandwidth: 1024, QueueLen: 4} // slow link, tiny queue
	n, _ := twoHosts(t, cfg)
	for i := 0; i < 100; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: make([]byte, 500)})
	}
	time.Sleep(50 * time.Millisecond)
	st, _ := n.Stats(1, 2)
	if st.Overflows == 0 {
		t.Fatalf("no overflows recorded: %+v", st)
	}
}

func TestControlPriorityBeatsBestEffort(t *testing.T) {
	// Saturate a slow link with best-effort, then send one control
	// packet; it must arrive well before the best-effort backlog clears.
	cfg := LinkConfig{Bandwidth: 50 * 1024, QueueLen: 1024}
	n, sink := twoHosts(t, cfg)
	for i := 0; i < 50; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Prio: PrioBestEffort, Payload: make([]byte, 1000)})
	}
	_ = n.Send(Packet{Src: 1, Dst: 2, Prio: PrioControl, Payload: []byte("ctl")})
	deadline := time.After(5 * time.Second)
	for {
		select {
		case p := <-sink.ch:
			if p.Prio == PrioControl {
				// Count best-effort deliveries that beat it.
				sink.mu.Lock()
				before := 0
				for _, q := range sink.pkts {
					if q.Prio == PrioBestEffort {
						before++
					}
				}
				sink.mu.Unlock()
				if before > 10 {
					t.Fatalf("control packet arrived after %d best-effort packets", before)
				}
				return
			}
		case <-deadline:
			t.Fatal("control packet never arrived")
		}
	}
}

func TestReservationAccounting(t *testing.T) {
	n, _ := twoHosts(t, LinkConfig{Bandwidth: 1000})
	if err := n.Reserve(1, 2, 800); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := n.Reserve(1, 2, 200); err == nil {
		t.Fatal("over-reservation succeeded (only 90% reservable)")
	}
	avail, err := n.Available(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if avail != 100 {
		t.Fatalf("available = %g, want 100", avail)
	}
	if err := n.Release(1, 2, 800); err != nil {
		t.Fatal(err)
	}
	avail, _ = n.Available(1, 2)
	if avail != 900 {
		t.Fatalf("available after release = %g, want 900", avail)
	}
	if err := n.Reserve(1, 2, -1); err == nil {
		t.Fatal("negative reservation succeeded")
	}
	if err := n.Reserve(9, 9, 1); err == nil {
		t.Fatal("reservation on missing link succeeded")
	}
}

func TestReleaseClampsAtZero(t *testing.T) {
	n, _ := twoHosts(t, LinkConfig{Bandwidth: 1000})
	_ = n.Release(1, 2, 500)
	avail, _ := n.Available(1, 2)
	if avail != 900 {
		t.Fatalf("available = %g, want 900 (release clamped)", avail)
	}
}

func TestPathCapability(t *testing.T) {
	n := New(sys)
	for id := core.HostID(1); id <= 3; id++ {
		_ = n.AddHost(id, nil)
	}
	_ = n.AddLink(1, 2, LinkConfig{Bandwidth: 1e6, Delay: 10 * time.Millisecond, Jitter: time.Millisecond, Loss: Bernoulli{P: 0.01}})
	_ = n.AddLink(2, 3, LinkConfig{Bandwidth: 2e6, Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond, Loss: Bernoulli{P: 0.02}})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	pc, err := n.PathCapability(1, 3, 968)
	if err != nil {
		t.Fatal(err)
	}
	// Bottleneck is link 1->2: 0.9e6 B/s over 1000-byte packets = 900 OSDU/s.
	if pc.MaxThroughput < 850 || pc.MaxThroughput > 950 {
		t.Errorf("MaxThroughput = %g, want ~900", pc.MaxThroughput)
	}
	if pc.MinDelay < 15*time.Millisecond {
		t.Errorf("MinDelay = %v, want >= 15ms", pc.MinDelay)
	}
	if pc.MinJitter != 3*time.Millisecond {
		t.Errorf("MinJitter = %v, want 3ms", pc.MinJitter)
	}
	want := 1 - 0.99*0.98
	if diff := pc.MinPER - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("MinPER = %g, want %g", pc.MinPER, want)
	}
}

func TestPathCapabilityReflectsReservations(t *testing.T) {
	n, _ := twoHosts(t, LinkConfig{Bandwidth: 1e6})
	before, _ := n.PathCapability(1, 2, 968)
	if err := n.Reserve(1, 2, 500e3); err != nil {
		t.Fatal(err)
	}
	after, _ := n.PathCapability(1, 2, 968)
	if after.MaxThroughput >= before.MaxThroughput {
		t.Fatalf("capability did not shrink: %g -> %g", before.MaxThroughput, after.MaxThroughput)
	}
}

func TestConfigErrors(t *testing.T) {
	n := New(sys)
	_ = n.AddHost(1, nil)
	if err := n.AddHost(1, nil); err == nil {
		t.Error("duplicate AddHost succeeded")
	}
	if err := n.AddSimplexLink(1, 9, fastLink()); err == nil {
		t.Error("link to unknown host succeeded")
	}
	if err := n.AddSimplexLink(9, 1, fastLink()); err == nil {
		t.Error("link from unknown host succeeded")
	}
	if err := n.AddSimplexLink(1, 1, LinkConfig{}); err == nil {
		t.Error("zero-bandwidth link succeeded")
	}
	if err := n.Send(Packet{Src: 1, Dst: 1}); err == nil {
		t.Error("Send before Start succeeded")
	}
	_ = n.AddHost(2, nil)
	_ = n.AddLink(1, 2, fastLink())
	if err := n.AddLink(1, 2, fastLink()); err == nil {
		t.Error("duplicate link succeeded")
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Start(); err == nil {
		t.Error("second Start succeeded")
	}
	if err := n.AddHost(3, nil); err == nil {
		t.Error("AddHost after Start succeeded")
	}
	if err := n.SetHandler(9, nil); err == nil {
		t.Error("SetHandler for unknown host succeeded")
	}
	if _, err := n.Stats(5, 6); err == nil {
		t.Error("Stats for unknown link succeeded")
	}
}

func TestSendAfterClose(t *testing.T) {
	n, _ := twoHosts(t, fastLink())
	n.Close()
	if err := n.Send(Packet{Src: 1, Dst: 2}); err == nil {
		t.Fatal("Send after Close succeeded")
	}
	n.Close() // idempotent
}

func TestHostsSorted(t *testing.T) {
	n := New(sys)
	for _, id := range []core.HostID{5, 1, 3} {
		_ = n.AddHost(id, nil)
	}
	got := n.Hosts()
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("Hosts() = %v", got)
	}
}

func TestConcurrentSenders(t *testing.T) {
	cfg := fastLink()
	cfg.QueueLen = 4096
	n, sink := twoHosts(t, cfg)
	var wg sync.WaitGroup
	var sent atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := n.Send(Packet{Src: 1, Dst: 2, Payload: []byte{byte(i)}}); err == nil {
					sent.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	sink.wait(t, int(sent.Load()), 5*time.Second)
}

func TestDegradeLinkInService(t *testing.T) {
	n, sink := twoHosts(t, fastLink())
	for i := 0; i < 50; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: []byte{1}})
	}
	sink.wait(t, 50, 2*time.Second)
	if err := n.Degrade(1, 2, Bernoulli{P: 1.0}, -1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_ = n.Send(Packet{Src: 1, Dst: 2, Payload: []byte{1}})
	}
	time.Sleep(50 * time.Millisecond)
	st, _ := n.Stats(1, 2)
	if st.Dropped < 40 {
		t.Fatalf("degraded link dropped only %d", st.Dropped)
	}
	if err := n.Degrade(9, 9, nil, 0); err == nil {
		t.Fatal("degrade of missing link succeeded")
	}
}

func TestRoutesAreLoopFreeAndComplete(t *testing.T) {
	// Property: on random connected topologies, every host pair has a
	// route, routes never loop, and hop counts are consistent with BFS.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := New(sys)
		hosts := 3 + rng.Intn(6)
		for id := core.HostID(1); id <= core.HostID(hosts); id++ {
			_ = n.AddHost(id, nil)
		}
		// Spanning chain guarantees connectivity, plus random extras.
		for id := core.HostID(1); id < core.HostID(hosts); id++ {
			_ = n.AddLink(id, id+1, fastLink())
		}
		for e := 0; e < hosts; e++ {
			a := core.HostID(1 + rng.Intn(hosts))
			b := core.HostID(1 + rng.Intn(hosts))
			if a != b {
				_ = n.AddLink(a, b, fastLink()) // duplicates rejected, fine
			}
		}
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
		for a := core.HostID(1); a <= core.HostID(hosts); a++ {
			for b := core.HostID(1); b <= core.HostID(hosts); b++ {
				route, err := n.Route(a, b)
				if err != nil {
					t.Fatalf("trial %d: no route %v->%v", trial, a, b)
				}
				seen := map[core.HostID]bool{}
				for _, h := range route {
					if seen[h] {
						t.Fatalf("trial %d: loop in route %v", trial, route)
					}
					seen[h] = true
				}
				if route[0] != a || route[len(route)-1] != b {
					t.Fatalf("trial %d: route %v does not span %v->%v", trial, route, a, b)
				}
				if len(route) > hosts {
					t.Fatalf("trial %d: route longer than host count: %v", trial, route)
				}
			}
		}
		n.Close()
	}
}

func TestPathCapabilityGilbertElliott(t *testing.T) {
	n := New(sys)
	_ = n.AddHost(1, nil)
	_ = n.AddHost(2, nil)
	ge := &GilbertElliott{PGoodBad: 0.05, PBadGood: 0.2, PLossGood: 0, PLossBad: 0.5}
	_ = n.AddLink(1, 2, LinkConfig{Bandwidth: 1e6, Loss: ge})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	pc, err := n.PathCapability(1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Steady state: pBad = 0.05/0.25 = 0.2; loss = 0.2*0.5 = 0.1.
	if pc.MinPER < 0.08 || pc.MinPER > 0.12 {
		t.Fatalf("GE steady-state PER estimate = %g, want ~0.10", pc.MinPER)
	}
}

func TestGilbertElliottCloneIsolatesState(t *testing.T) {
	g := &GilbertElliott{PGoodBad: 1, PBadGood: 0, PLossGood: 0, PLossBad: 1}
	c := g.Clone().(*GilbertElliott)
	r := rand.New(rand.NewSource(1))
	_ = g.Drop(r) // drives g into the bad state
	if c.bad {
		t.Fatal("clone shares state with original")
	}
}

func TestRouteAvoiding(t *testing.T) {
	// Diamond: 1-2, 1-3, 2-4, 3-4. Host 4 is reachable from 1 through
	// either arm, so banning one must route through the other.
	n := New(sys)
	for id := core.HostID(1); id <= 4; id++ {
		if err := n.AddHost(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range [][2]core.HostID{{1, 2}, {1, 3}, {2, 4}, {3, 4}} {
		if err := n.AddLink(l[0], l[1], fastLink()); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	p, err := n.RouteAvoiding(1, 4, []core.HostID{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 3 {
		t.Fatalf("route avoiding 2 = %v, want 1-3-4", p)
	}
	p, err = n.RouteAvoiding(1, 4, []core.HostID{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 2 {
		t.Fatalf("route avoiding 3 = %v, want 1-2-4", p)
	}
	if _, err := n.RouteAvoiding(1, 4, []core.HostID{2, 3}); err == nil {
		t.Fatal("route with both arms banned succeeded")
	}
	// Endpoints are never banned: an avoid set naming src or dst only
	// excludes intermediate visits.
	p, err = n.RouteAvoiding(1, 4, []core.HostID{1, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 || p[1] != 3 {
		t.Fatalf("route with endpoints in avoid set = %v, want 1-3-4", p)
	}
	// Empty avoid set behaves like plain Route.
	if p, err = n.RouteAvoiding(1, 4, nil); err != nil || len(p) != 3 {
		t.Fatalf("RouteAvoiding with no exclusions = %v, %v", p, err)
	}
}
