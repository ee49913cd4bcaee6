// Package nettest is the substrate conformance suite: a set of
// behavioural checks every netif.Network implementation must pass so the
// transport above can treat substrates interchangeably. Each substrate's
// test package builds a Harness factory and calls Run.
package nettest

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
)

// Options tunes a harness for one conformance check.
type Options struct {
	// Damage asks the substrate to corrupt (nearly) every packet in
	// transit, exercising Damaged delivery.
	Damage bool
	// PaceBps caps the substrate's drain rate in bytes/sec so the
	// priority queues actually fill; 0 keeps the substrate's default.
	PaceBps float64
}

// Harness is one two-host substrate instance. A is the network as seen
// from HostA (the sender), B as seen from HostB (the receiver); for an
// in-process emulator both are the same object.
type Harness struct {
	A, B         netif.Network
	HostA, HostB core.HostID
	Close        func()
}

// Factory builds a fresh harness for one subtest. It may skip t (e.g.
// when the environment forbids sockets).
type Factory func(t *testing.T, o Options) *Harness

// collector accumulates delivered packets. It copies each payload:
// netif.Handler's contract says the bytes are valid only until the
// handler returns (a substrate may recycle the buffer).
type collector struct {
	mu   sync.Mutex
	pkts []netif.Packet
}

func (c *collector) handle(p netif.Packet) {
	p.Payload = append([]byte(nil), p.Payload...)
	c.mu.Lock()
	c.pkts = append(c.pkts, p)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pkts)
}

func (c *collector) snapshot() []netif.Packet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]netif.Packet(nil), c.pkts...)
}

// waitFor polls until cond or the deadline.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// Run executes the conformance suite against the substrate mk builds.
func Run(t *testing.T, mk Factory) {
	t.Run("Delivery", func(t *testing.T) { testDelivery(t, mk) })
	t.Run("BatchDelivery", func(t *testing.T) { testBatchDelivery(t, mk) })
	t.Run("PriorityOrdering", func(t *testing.T) { testPriorityOrdering(t, mk) })
	t.Run("DamagedAttribution", func(t *testing.T) { testDamagedAttribution(t, mk) })
	t.Run("SegmentedDelivery", func(t *testing.T) { testSegmentedDelivery(t, mk) })
	t.Run("SegmentedDamage", func(t *testing.T) { testSegmentedDamage(t, mk) })
	t.Run("HandlerDetachOnClose", func(t *testing.T) { testHandlerDetachOnClose(t, mk) })
	t.Run("SendBorrowsPayload", func(t *testing.T) { SendBorrowsPayload(t, mk) })
}

// testDelivery: packets arrive intact with source, flow and priority
// metadata preserved.
func testDelivery(t *testing.T, mk Factory) {
	h := mk(t, Options{})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N = 50
	for i := 0; i < N; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 32+i)
		err := h.A.Send(netif.Packet{
			Src: h.HostA, Dst: h.HostB, Flow: 7,
			Prio: netif.PrioGuaranteed, Payload: payload,
		})
		if err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if !waitFor(5*time.Second, func() bool { return col.count() >= N }) {
		t.Fatalf("delivered %d of %d packets", col.count(), N)
	}
	seen := make(map[int]bool)
	for _, p := range col.snapshot() {
		if p.Src != h.HostA || p.Dst != h.HostB || p.Flow != 7 || p.Prio != netif.PrioGuaranteed {
			t.Fatalf("metadata not preserved: %+v", p)
		}
		if p.Damaged {
			t.Fatalf("packet damaged on a clean path")
		}
		i := len(p.Payload) - 32
		if i < 0 || i >= N || !bytes.Equal(p.Payload, bytes.Repeat([]byte{byte(i)}, 32+i)) {
			t.Fatalf("payload corrupted: %d bytes", len(p.Payload))
		}
		seen[i] = true
	}
	if len(seen) != N {
		t.Fatalf("got %d distinct packets, want %d", len(seen), N)
	}
}

// testBatchDelivery: a substrate advertising netif.BatchSender delivers
// a SendBatch'd burst with the same fidelity Send gives — every packet
// intact, metadata preserved. Substrates without the capability pass
// vacuously.
func testBatchDelivery(t *testing.T, mk Factory) {
	h := mk(t, Options{})
	defer h.Close()
	bs, ok := h.A.(netif.BatchSender)
	if !ok {
		t.Skipf("%T does not implement netif.BatchSender", h.A)
	}
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N = 100
	batch := make([]netif.Packet, N)
	for i := range batch {
		batch[i] = netif.Packet{
			Src: h.HostA, Dst: h.HostB, Flow: 5,
			Prio: netif.PrioGuaranteed, Payload: bytes.Repeat([]byte{byte(i)}, 32+i),
		}
	}
	if err := bs.SendBatch(batch); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if !waitFor(5*time.Second, func() bool { return col.count() >= N }) {
		t.Fatalf("delivered %d of %d batched packets", col.count(), N)
	}
	seen := make(map[int]bool)
	for _, p := range col.snapshot() {
		if p.Src != h.HostA || p.Dst != h.HostB || p.Flow != 5 || p.Prio != netif.PrioGuaranteed {
			t.Fatalf("metadata not preserved: %+v", p)
		}
		i := len(p.Payload) - 32
		if i < 0 || i >= N || !bytes.Equal(p.Payload, bytes.Repeat([]byte{byte(i)}, 32+i)) {
			t.Fatalf("payload corrupted: %d bytes", len(p.Payload))
		}
		seen[i] = true
	}
	if len(seen) != N {
		t.Fatalf("got %d distinct packets, want %d", len(seen), N)
	}
}

// testPriorityOrdering: on a rate-limited path, a control packet sent
// after a burst of queued best-effort packets overtakes most of them.
func testPriorityOrdering(t *testing.T, mk Factory) {
	h := mk(t, Options{PaceBps: 200e3})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const bulk = 30
	for i := 0; i < bulk; i++ {
		err := h.A.Send(netif.Packet{
			Src: h.HostA, Dst: h.HostB, Flow: 1,
			Prio: netif.PrioBestEffort, Payload: make([]byte, 1000),
		})
		if err != nil {
			t.Fatalf("Send bulk %d: %v", i, err)
		}
	}
	err := h.A.Send(netif.Packet{
		Src: h.HostA, Dst: h.HostB, Flow: 2,
		Prio: netif.PrioControl, Payload: []byte("urgent"),
	})
	if err != nil {
		t.Fatalf("Send control: %v", err)
	}
	if !waitFor(10*time.Second, func() bool { return col.count() >= bulk+1 }) {
		t.Fatalf("delivered %d of %d packets", col.count(), bulk+1)
	}
	pos := -1
	for i, p := range col.snapshot() {
		if p.Prio == netif.PrioControl {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatalf("control packet never arrived")
	}
	// The burst drains at ~5ms/packet; the control packet joins within
	// the first few transmissions and must overtake the tail.
	if pos > bulk/2 {
		t.Fatalf("control packet arrived at position %d of %d: priority not honoured", pos, bulk+1)
	}
}

// testDamagedAttribution: corrupted packets are delivered with Damaged
// set and the owning Flow still attributable.
func testDamagedAttribution(t *testing.T, mk Factory) {
	h := mk(t, Options{Damage: true})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N = 20
	for i := 0; i < N; i++ {
		err := h.A.Send(netif.Packet{
			Src: h.HostA, Dst: h.HostB, Flow: 9,
			Prio: netif.PrioGuaranteed, Payload: make([]byte, 1000),
		})
		if err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	if !waitFor(5*time.Second, func() bool { return col.count() >= N }) {
		t.Fatalf("delivered %d of %d packets", col.count(), N)
	}
	damaged := 0
	for _, p := range col.snapshot() {
		if p.Damaged {
			damaged++
			if p.Flow != 9 {
				t.Fatalf("damaged packet lost its Flow attribution: %+v", p)
			}
		}
	}
	if damaged == 0 {
		t.Fatalf("no damaged deliveries on a corrupting path")
	}
}

// segBurst builds the segmented-delivery workload: bursts of
// equal-size packets — exactly what a GSO send coalesces into
// super-datagrams and a GRO receive re-splits — with per-packet
// distinct content and flow so any misattribution after the split is
// visible. The index is sealed into the payload head; the rest is an
// index-derived fill so a segment-boundary slip corrupts the pattern.
func segBurst(h *Harness, n, size int) []netif.Packet {
	batch := make([]netif.Packet, n)
	for i := range batch {
		pl := make([]byte, size)
		fillIndexed(pl, i)
		batch[i] = netif.Packet{
			Src: h.HostA, Dst: h.HostB, Flow: core.VCID(100 + i%7),
			Prio: netif.PrioGuaranteed, Payload: pl,
		}
	}
	return batch
}

// fillIndexed writes packet i's pattern over pl: the index sealed into the
// first two bytes, an index-derived fill behind it.
func fillIndexed(pl []byte, i int) {
	pl[0], pl[1] = byte(i>>8), byte(i)
	for j := 2; j < len(pl); j++ {
		pl[j] = byte(i * 31)
	}
}

// sendAll pushes a burst through SendBatch when the substrate has it,
// else packet-by-packet — the conformance claim is the same either way.
func sendAll(t *testing.T, h *Harness, batch []netif.Packet) {
	t.Helper()
	if bs, ok := h.A.(netif.BatchSender); ok {
		if err := bs.SendBatch(batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		return
	}
	for i, p := range batch {
		if err := h.A.Send(p); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
}

// testSegmentedDelivery: a burst of equal-size packets — the shape a
// GSO/GRO substrate moves as coalesced super-datagrams — must deliver
// every packet individually, with per-packet Flow, Prio and payload
// intact. A substrate that leaks segmentation (merged, split or
// misattributed packets) fails here even though each lone datagram
// round-trips fine.
func testSegmentedDelivery(t *testing.T, mk Factory) {
	h := mk(t, Options{})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N, size = 96, 512 // > one 64-segment super-datagram
	sendAll(t, h, segBurst(h, N, size))
	if !waitFor(5*time.Second, func() bool { return col.count() >= N }) {
		t.Fatalf("delivered %d of %d segmented packets", col.count(), N)
	}
	seen := make(map[int]bool)
	for _, p := range col.snapshot() {
		if len(p.Payload) != size {
			t.Fatalf("segment boundary lost: %d-byte delivery, want %d", len(p.Payload), size)
		}
		i := int(p.Payload[0])<<8 | int(p.Payload[1])
		if i >= N {
			t.Fatalf("impossible packet index %d", i)
		}
		if p.Flow != core.VCID(100+i%7) || p.Prio != netif.PrioGuaranteed || p.Src != h.HostA {
			t.Fatalf("packet %d misattributed after split: %+v", i, p)
		}
		for j := 2; j < size; j++ {
			if p.Payload[j] != byte(i*31) {
				t.Fatalf("packet %d payload corrupted at byte %d", i, j)
			}
		}
		if p.Damaged {
			t.Fatalf("packet %d damaged on a clean path", i)
		}
		seen[i] = true
	}
	if len(seen) != N {
		t.Fatalf("got %d distinct packets, want %d", len(seen), N)
	}
}

// testSegmentedDamage: per-packet Damaged attribution must survive
// coalescing — when segments of one super-datagram are corrupted, each
// is delivered with its own Damaged flag and Flow, and clean
// neighbours in the same super-datagram stay clean.
func testSegmentedDamage(t *testing.T, mk Factory) {
	h := mk(t, Options{Damage: true})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N, size = 64, 512
	sendAll(t, h, segBurst(h, N, size))
	if !waitFor(5*time.Second, func() bool { return col.count() >= N }) {
		t.Fatalf("delivered %d of %d segmented packets", col.count(), N)
	}
	damaged := 0
	for _, p := range col.snapshot() {
		if len(p.Payload) != size {
			t.Fatalf("segment boundary lost: %d-byte delivery, want %d", len(p.Payload), size)
		}
		i := int(p.Payload[0])<<8 | int(p.Payload[1])
		if p.Damaged {
			damaged++
			if i < N && p.Flow != core.VCID(100+i%7) {
				t.Fatalf("damaged segment lost its Flow attribution: %+v", p)
			}
		}
	}
	if damaged == 0 {
		t.Fatalf("no damaged deliveries on a corrupting path")
	}
	if damaged == N {
		t.Fatalf("every segment damaged: attribution not per-packet")
	}
}

// SendBorrowsPayload checks the sending half of the borrow rule
// (netif.Network.Send): the caller overwrites its buffer the moment Send
// or SendBatch returns — as the transport does, encoding the next TPDU
// over the last — and every packet must still arrive with the bytes it was
// sent with. It is exported so that a wrapper which holds packets back
// (a delay, reorder or duplicate stage) can be put through it with those
// faults armed: duplicates and reordering are tolerated, loss is not.
func SendBorrowsPayload(t *testing.T, mk Factory) {
	h := mk(t, Options{})
	defer h.Close()
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		t.Fatalf("SetHandler: %v", err)
	}
	const N, size = 64, 512
	scribble := func(buf []byte) {
		for j := range buf {
			buf[j] = 0xEE
		}
	}
	pkt := func(buf []byte) netif.Packet {
		return netif.Packet{Src: h.HostA, Dst: h.HostB, Flow: 3, Prio: netif.PrioGuaranteed, Payload: buf}
	}
	total := N
	buf := make([]byte, size) // one buffer, reused for every Send
	for i := 0; i < N; i++ {
		fillIndexed(buf, i)
		if err := h.A.Send(pkt(buf)); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
		scribble(buf)
	}
	if bs, ok := h.A.(netif.BatchSender); ok {
		total = 2 * N
		bufs := make([]byte, N*size)
		batch := make([]netif.Packet, N)
		for i := range batch {
			b := bufs[i*size : (i+1)*size]
			fillIndexed(b, N+i)
			batch[i] = pkt(b)
		}
		if err := bs.SendBatch(batch); err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		scribble(bufs)
	}
	seen := make(map[int]bool)
	want := make([]byte, size)
	check := func() bool {
		for _, p := range col.snapshot() {
			if len(p.Payload) != size {
				t.Fatalf("%d-byte delivery, want %d", len(p.Payload), size)
			}
			i := int(p.Payload[0])<<8 | int(p.Payload[1])
			if i >= total {
				t.Fatalf("delivered bytes % x...: not what any packet was sent with — the payload was read after Send returned", p.Payload[:8])
			}
			fillIndexed(want, i)
			if !p.Damaged && !bytes.Equal(p.Payload, want) {
				t.Fatalf("packet %d delivered with bytes changed after Send returned", i)
			}
			seen[i] = true
		}
		return len(seen) == total
	}
	if !waitFor(5*time.Second, check) {
		t.Fatalf("delivered %d of %d distinct packets", len(seen), total)
	}
}

// testHandlerDetachOnClose: after Close returns, no handler runs and
// sends fail.
func testHandlerDetachOnClose(t *testing.T, mk Factory) {
	h := mk(t, Options{})
	col := &collector{}
	if err := h.B.SetHandler(h.HostB, col.handle); err != nil {
		h.Close()
		t.Fatalf("SetHandler: %v", err)
	}
	if err := h.A.Send(netif.Packet{
		Src: h.HostA, Dst: h.HostB, Prio: netif.PrioControl, Payload: []byte("x"),
	}); err != nil {
		h.Close()
		t.Fatalf("Send: %v", err)
	}
	waitFor(2*time.Second, func() bool { return col.count() >= 1 })
	h.Close()
	after := col.count()
	if err := h.A.Send(netif.Packet{
		Src: h.HostA, Dst: h.HostB, Prio: netif.PrioControl, Payload: []byte("y"),
	}); err == nil {
		t.Fatalf("Send after Close succeeded")
	}
	time.Sleep(50 * time.Millisecond)
	if col.count() != after {
		t.Fatalf("handler ran after Close (%d -> %d deliveries)", after, col.count())
	}
}
