package udpnet

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cmtos/internal/netif"
)

// TestWireRoundTrip checks the header codec preserves every field.
func TestWireRoundTrip(t *testing.T) {
	in := netif.Packet{
		Src: 1, Dst: 2, Flow: 0x10001, Prio: netif.PrioGuaranteed,
		Payload: []byte("hello, wire"),
	}
	out, _, ok := unmarshal(marshal(in))
	if !ok {
		t.Fatalf("unmarshal failed")
	}
	if out.Src != in.Src || out.Dst != in.Dst || out.Flow != in.Flow ||
		out.Prio != in.Prio || !bytes.Equal(out.Payload, in.Payload) || out.Damaged {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestWireDamage checks the two corruption regimes: payload corruption
// delivers with Damaged and intact attribution; header corruption makes
// the datagram untrustworthy and undecodable.
func TestWireDamage(t *testing.T) {
	in := netif.Packet{Src: 1, Dst: 2, Flow: 7, Prio: netif.PrioControl, Payload: make([]byte, 64)}
	data := marshal(in)
	data[headerSize+3] ^= 0x01 // payload bit flip
	out, _, ok := unmarshal(data)
	if !ok {
		t.Fatalf("payload-damaged datagram must still decode")
	}
	if !out.Damaged || out.Flow != 7 {
		t.Fatalf("want Damaged with Flow preserved, got %+v", out)
	}

	data = marshal(in)
	data[5] ^= 0x01 // header bit flip (src field)
	if _, _, ok := unmarshal(data); ok {
		t.Fatalf("header-damaged datagram must be dropped")
	}
	if _, _, ok := unmarshal(data[:10]); ok {
		t.Fatalf("truncated datagram must be dropped")
	}
}

// newPair builds two connected substrates on loopback, skipping when the
// sandbox forbids sockets.
func newPair(t *testing.T, a, b Config) (*Network, *Network) {
	t.Helper()
	a.Listen, b.Listen = "127.0.0.1:0", "127.0.0.1:0"
	na, err := New(a)
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	nb, err := New(b)
	if err != nil {
		na.Close()
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	if err := na.AddPeer(b.Local, nb.Addr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	if err := nb.AddPeer(a.Local, na.Addr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	t.Cleanup(func() { na.Close(); nb.Close() })
	return na, nb
}

// TestPeerLearning checks a responder with no static peer table learns
// the initiator's address from inbound traffic and can answer.
func TestPeerLearning(t *testing.T) {
	na, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer na.Close()
	nb, err := New(Config{Local: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer nb.Close()
	if err := na.AddPeer(2, nb.Addr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}

	gotA := make(chan netif.Packet, 1)
	gotB := make(chan netif.Packet, 1)
	// Payloads outlive the handler, so copy them (Handler contract).
	keep := func(p netif.Packet) netif.Packet {
		p.Payload = append([]byte(nil), p.Payload...)
		return p
	}
	_ = na.SetHandler(1, func(p netif.Packet) { gotA <- keep(p) })
	_ = nb.SetHandler(2, func(p netif.Packet) {
		gotB <- keep(p)
		// Reply without ever having configured peer 1.
		_ = nb.Send(netif.Packet{Src: 2, Dst: 1, Prio: netif.PrioControl, Payload: []byte("pong")})
	})
	if err := na.Send(netif.Packet{Src: 1, Dst: 2, Prio: netif.PrioControl, Payload: []byte("ping")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatalf("responder never got the ping")
	}
	select {
	case p := <-gotA:
		if string(p.Payload) != "pong" {
			t.Fatalf("bad reply payload %q", p.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("initiator never got the learned-peer reply")
	}
}

// TestMTUAndUnknownPeer checks Send's input validation.
func TestMTUAndUnknownPeer(t *testing.T) {
	na, _ := newPair(t, Config{Local: 1, MTU: 128}, Config{Local: 2})
	if err := na.Send(netif.Packet{Src: 1, Dst: 2, Payload: make([]byte, 129)}); err == nil {
		t.Fatalf("oversized payload must be rejected")
	}
	if err := na.Send(netif.Packet{Src: 1, Dst: 9, Payload: []byte("x")}); err == nil {
		t.Fatalf("unknown peer must be rejected")
	}
	if _, err := na.Route(1, 9); err == nil {
		t.Fatalf("Route to unknown peer must fail")
	}
	if p, err := na.Route(1, 2); err != nil || len(p) != 2 {
		t.Fatalf("Route(1,2) = %v, %v", p, err)
	}
}

// TestDamageEmptyPayload pins a crash: with damage enabled, an
// empty-payload packet used to index one byte past the header
// (data[headerSize]) and panic. Empty payloads have no bits to flip, so
// they must pass through clean.
func TestDamageEmptyPayload(t *testing.T) {
	n, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer n.Close()
	n.SetDamage(1.0)
	got := make(chan netif.Packet, 1)
	_ = n.SetHandler(1, func(p netif.Packet) {
		p.Payload = append([]byte(nil), p.Payload...)
		select {
		case got <- p:
		default:
		}
	})
	if err := n.Send(netif.Packet{Src: 1, Dst: 1, Prio: netif.PrioControl}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case p := <-got:
		if len(p.Payload) != 0 {
			t.Fatalf("empty payload came back with %d bytes", len(p.Payload))
		}
		if p.Damaged {
			t.Fatalf("empty payload cannot be damaged (no bits to flip)")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("empty-payload packet never delivered")
	}
}

// TestRingBounded pins the send-queue retention leak: the old
// slice-of-slices queue advanced its head with q = q[1:], so the backing
// array kept growing and popped entries stayed reachable. The ring must
// never grow past its capacity and must clear vacated slots so popped
// buffers can be collected.
func TestRingBounded(t *testing.T) {
	r := newRing(4)
	mk := func(i int) outPkt {
		b := make([]byte, 8)
		return outPkt{buf: &b, n: i}
	}
	dst := make([]outPkt, 4)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 4; i++ {
			if !r.push(mk(i)) {
				t.Fatalf("round %d: push %d failed below capacity", round, i)
			}
		}
		if r.push(mk(99)) {
			t.Fatalf("round %d: push above capacity succeeded", round)
		}
		if got := r.pop(dst); got != 4 {
			t.Fatalf("round %d: pop returned %d, want 4", round, got)
		}
		if len(r.buf) != 4 {
			t.Fatalf("round %d: ring grew to %d slots", round, len(r.buf))
		}
		for i, slot := range r.buf {
			if slot.buf != nil {
				t.Fatalf("round %d: popped slot %d still pins its buffer", round, i)
			}
		}
	}
}

// TestPeerRestartRelearn pins the crash-restart hole: learnPeer only
// recorded unknown hosts, so when a peer came back on a new port the
// stale mapping stuck and every reply went to the dead address. A
// CRC-validated header from a new source address must refresh the
// mapping.
func TestPeerRestartRelearn(t *testing.T) {
	na, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer na.Close()
	b1, err := New(Config{Local: 2, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	if err := na.AddPeer(2, b1.Addr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	b1.Close() // peer crashes; its port is gone

	b2, err := New(Config{Local: 2, Listen: "127.0.0.1:0"}) // restart on a fresh port
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer b2.Close()
	if err := b2.AddPeer(1, na.Addr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	gotB := make(chan struct{}, 8)
	_ = b2.SetHandler(2, func(netif.Packet) { gotB <- struct{}{} })
	gotA := make(chan struct{}, 8)
	_ = na.SetHandler(1, func(netif.Packet) { gotA <- struct{}{} })

	// The restarted peer re-announces itself; na must refresh 2's
	// address from the validated header instead of keeping the stale one.
	if err := b2.Send(netif.Packet{Src: 2, Dst: 1, Prio: netif.PrioControl, Payload: []byte("back")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-gotA:
	case <-time.After(5 * time.Second):
		t.Fatalf("announcement never arrived")
	}
	if err := na.Send(netif.Packet{Src: 1, Dst: 2, Prio: netif.PrioControl, Payload: []byte("hello again")}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case <-gotB:
	case <-time.After(5 * time.Second):
		t.Fatalf("reply went to the dead address: restarted peer never reached")
	}
}

// TestSteadyStateAllocs guards the zero-allocation contract of the data
// path: once the buffer pool is warm, marshalling, unmarshalling and the
// full local send+deliver pipeline must not allocate per packet.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := netif.Packet{
		Src: 1, Dst: 1, Flow: 7, Prio: netif.PrioGuaranteed,
		Payload: make([]byte, 512),
	}
	dst := make([]byte, headerSize+len(p.Payload))
	if got := testing.AllocsPerRun(200, func() { marshalInto(dst, p, 0) }); got != 0 {
		t.Errorf("marshalInto allocates %.1f per packet, want 0", got)
	}
	marshalInto(dst, p, 0)
	if got := testing.AllocsPerRun(200, func() {
		if _, _, ok := unmarshal(dst); !ok {
			t.Fatal("unmarshal failed")
		}
	}); got != 0 {
		t.Errorf("unmarshal allocates %.1f per packet, want 0", got)
	}

	n, err := New(Config{Local: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Skipf("UDP sockets unavailable: %v", err)
	}
	defer n.Close()
	var delivered atomic.Int64
	_ = n.SetHandler(1, func(netif.Packet) { delivered.Add(1) })
	send := func() {
		if err := n.Send(p); err != nil {
			t.Fatalf("Send: %v", err)
		}
		want := delivered.Load() + 1
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("packet never delivered")
			}
			runtime.Gosched()
		}
	}
	for i := 0; i < 200; i++ { // warm the buffer pool
		send()
	}
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Errorf("local send+deliver allocates %.1f per packet, want 0", got)
	}
}

// TestReusePortAutobindDistinct opens many reuseport-sharded substrates on
// port 0 at once. Each must get a port of its own: a port shared with
// another host's reuseport group would split their datagrams.
func TestReusePortAutobindDistinct(t *testing.T) {
	if platformMaxRecvShards < 2 {
		t.Skip("no SO_REUSEPORT receive sharding on this platform")
	}
	const hosts = 200
	ports := make(map[int]bool, hosts)
	for i := 0; i < hosts; i++ {
		n, err := New(Config{Local: 1, Listen: "127.0.0.1:0", RecvShards: 2, SendShards: 1})
		if err != nil {
			if i == 0 {
				t.Skipf("UDP sockets unavailable: %v", err)
			}
			t.Fatalf("host %d: New: %v", i, err)
		}
		defer n.Close()
		port := n.Addr().Port
		if ports[port] {
			t.Fatalf("host %d: port %d already held by another host", i, port)
		}
		ports[port] = true
	}
}
