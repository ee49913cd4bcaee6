package main

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/rate"
	"cmtos/internal/stats"
	"cmtos/internal/timerwheel"
	"cmtos/internal/udpnet"
)

// layerPayload is the OSDU size every isolated loop uses.
const layerPayload = 1024

// timeLoop calls body(n), n a multiple of 64, until d has passed and
// returns the process CPU time and the heap allocations per iteration. CPU
// time, not wall clock: the box is shared, and the sums are compared with
// cpu_us_per_osdu.
func timeLoop(d time.Duration, body func(n int)) (ns, allocs float64) {
	body(64) // warm pools and caches
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, start, total := cpuTime(), time.Now(), 0
	for n := 64; ; {
		body(n)
		total += n
		elapsed := time.Since(start)
		if elapsed >= d {
			break
		}
		// Double, but never past what the time left allows at this pace.
		left := int(float64(total) * float64(d-elapsed) / float64(elapsed+1))
		n = max(64, min(2*n, left)/64*64)
	}
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	return float64(cpu) / float64(total), float64(ms1.Mallocs-ms0.Mallocs) / float64(total)
}

// sink defeats dead-code elimination of the loops' results.
var layerSink int

// layerMetrics times each layer's public functions in isolation.
func layerMetrics(d time.Duration) map[string]metric {
	out := make(map[string]metric)
	put := func(name string, ns float64) { out[name] = metric{ns, "ns"} }
	putAllocs := func(name string, a float64) { out[name] = metric{a, "count"} }
	sys := clock.System{}
	payload := make([]byte, layerPayload)

	ring := cbuf.New(sys, 16, layerPayload)
	ns, allocs := timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			_ = ring.Put(cbuf.OSDU{Seq: core.OSDUSeq(i), Payload: payload})
			u, _ := ring.Get()
			layerSink += len(u.Payload)
		}
	})
	put("cbuf.put_get_ns", ns)
	putAllocs("cbuf.put_get_allocs", allocs)

	// A full retainer, as a relay splice's is in steady state.
	rt := cbuf.NewRetainer(sys, 1024, 30*time.Second)
	var kept core.OSDUSeq
	ns, _ = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			rt.Keep(cbuf.OSDU{Seq: kept, Payload: payload})
			kept++
		}
	})
	put("cbuf.retain_keep_ns", ns)

	data := &pdu.Data{VC: 1<<16 | 1, Seq: 1, OSDU: 1, FragCount: 1, OSDUSize: layerPayload, SentAt: time.Now(), Payload: payload}
	ns, allocs = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			layerSink += len(data.Marshal(nil))
		}
	})
	put("pdu.marshal_ns", ns)
	putAllocs("pdu.marshal_allocs", allocs)

	wire := data.Marshal(nil)
	ns, allocs = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			if m, err := pdu.Decode(wire); err == nil {
				layerSink += int(m.MessageKind())
			}
		}
	})
	put("pdu.decode_ns", ns)
	putAllocs("pdu.decode_allocs", allocs)

	ns, allocs = udpnetLoop(d, wire)
	put("udpnet.pkt_ns", ns)
	putAllocs("udpnet.pkt_allocs", allocs)
	put("netem.pkt_ns", netemLoop(d, wire))

	bucket := rate.NewBucket(sys, 1e12, 1e12)
	ns, _ = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			layerSink += int(bucket.Take(1))
		}
	})
	put("rate.take_ns", ns)

	// One timer armed a tick ahead and fired by the next Advance, on
	// virtual time so the loop never waits.
	at := time.Now()
	wheel := timerwheel.New(at, time.Millisecond)
	var tm timerwheel.Timer
	fire := func() { layerSink++ }
	ns, _ = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			wheel.Schedule(&tm, time.Millisecond, fire)
			at = at.Add(time.Millisecond)
			wheel.Advance(at)
		}
	})
	put("timerwheel.schedule_fire_ns", ns)

	ctr := stats.NewRegistry().Counter("x")
	ns, _ = timeLoop(d, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	put("stats.counter_inc_ns", ns)
	return out
}

// pktWindow is how many packets a substrate loop keeps in flight: enough
// to fill a send batch, few enough never to overflow a queue.
const pktWindow = 32

// pumpPackets sends n packets from host 1 to host 2 through send, keeping
// two windows in flight; acked receives one token per window delivered. A
// window that does not arrive within a second is given up on, so a lost
// packet slows the loop instead of hanging it.
func pumpPackets(n int, send func() error, acked <-chan struct{}) {
	inFlight := 0
	for sent := 0; sent < n || inFlight > 0; {
		for sent < n && inFlight < 2*pktWindow {
			for i := 0; i < pktWindow; i++ {
				_ = send() // a refused packet shows as a missing ack
			}
			sent += pktWindow
			inFlight += pktWindow
		}
		select {
		case <-acked:
		case <-time.After(time.Second):
		}
		inFlight -= pktWindow
	}
}

// windowAcker returns a handler that posts one token per pktWindow packets
// received.
func windowAcker() (netif.Handler, <-chan struct{}) {
	var got atomic.Uint64
	acked := make(chan struct{}, 1024) // never blocks the substrate's delivery goroutine
	return func(netif.Packet) {
		if got.Add(1)%pktWindow == 0 {
			select {
			case acked <- struct{}{}:
			default:
			}
		}
	}, acked
}

// udpnetLoop measures one packet's cost through two udpnet Networks on
// loopback: Send on one, handler entry on the other.
func udpnetLoop(d time.Duration, wire []byte) (ns, allocs float64) {
	mk := func(id core.HostID) (*udpnet.Network, error) {
		return newUDPNet(udpnet.Config{Local: id})
	}
	a, err := mk(1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: udpnet loop skipped:", err)
		return 0, 0
	}
	defer a.Close()
	b, err := mk(2)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: udpnet loop skipped:", err)
		return 0, 0
	}
	defer b.Close()
	if err := a.AddPeer(2, b.Addr().String()); err != nil {
		return 0, 0
	}
	h, acked := windowAcker()
	_ = b.SetHandler(2, h)
	p := netif.Packet{Src: 1, Dst: 2, Flow: 1<<16 | 1, Prio: netif.PrioGuaranteed, Payload: wire}
	return timeLoop(d, func(n int) { pumpPackets(n, func() error { return a.Send(p) }, acked) })
}

// netemLoop is udpnetLoop over an emulated link with no delay and ample
// bandwidth, so what remains is netem's own per-packet work.
func netemLoop(d time.Duration, wire []byte) float64 {
	nw := netem.New(clock.System{})
	defer nw.Close()
	h, acked := windowAcker()
	if nw.AddHost(1, nil) != nil || nw.AddHost(2, h) != nil ||
		nw.AddLink(1, 2, netem.LinkConfig{Bandwidth: 1e12, QueueLen: 4 * pktWindow}) != nil || nw.Start() != nil {
		return 0
	}
	p := netif.Packet{Src: 1, Dst: 2, Flow: 1<<16 | 1, Prio: netif.PrioGuaranteed, Payload: wire}
	ns, _ := timeLoop(d, func(n int) { pumpPackets(n, func() error { return nw.Send(p) }, acked) })
	return ns
}
