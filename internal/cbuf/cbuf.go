// Package cbuf implements the shared circular-buffer data-transfer
// interface of §3.7: a ring of OSDU slots shared between an application
// thread and a protocol thread, with access contention controlled by
// semaphores. OSDU boundaries are preserved irrespective of byte size, an
// auxiliary slot carries the current OSDU's size, and the time each side
// spends blocked on the semaphores is measured — those statistics drive
// the orchestration service's lag attribution (§6.3.1.2).
//
// Each transport VC owns two rings: at the source the application produces
// and the protocol consumes; at the sink the protocol produces and the
// application consumes. A delivery gate lets the sink LLO fill buffers
// while withholding delivery (Orch.Prime) and release them atomically
// (Orch.Start).
package cbuf

import (
	"errors"
	"sync"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/stats"
)

// ErrClosed is returned once the ring is closed and drained.
var ErrClosed = errors.New("cbuf: ring closed")

// OSDU is one logical data unit queued in a ring, together with the OPDU
// fields that travel with it (§5).
type OSDU struct {
	// Seq is the OSDU sequence number.
	Seq core.OSDUSeq
	// Event is the application-defined event field (zero = none).
	Event core.EventPattern
	// Payload is the OSDU content. For Put the ring copies it into slot
	// storage; for Get the returned slice aliases slot storage and is
	// valid until the next Get.
	Payload []byte
}

// Stats is the pair of cumulative blocking times gathered since the last
// TakeStats call: how long producers waited for free slots and how long
// consumers waited for data (including time held by the delivery gate).
type Stats struct {
	ProducerBlocked time.Duration
	ConsumerBlocked time.Duration
}

// Ring is a bounded circular buffer of OSDU slots. It is safe for any
// number of concurrent producers and consumers, though the intended use is
// one of each (the paper's application/protocol thread pair).
type Ring struct {
	clk clock.Clock

	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond

	slots  [][]byte // slot i's backing array, cap = maxOSDU
	sizes  []int
	seqs   []core.OSDUSeq
	events []core.EventPattern

	head, tail, count int
	gated             bool
	closed            bool
	sealed            bool
	consumed          core.OSDUSeq // one past the last OSDU handed to the consumer
	scratch           []byte       // consumer copy-out buffer; see Get

	fullChs []chan<- struct{} // NotifyFull subscribers
	dataFn  func()            // SetDataNotify hook; called after mu is released

	prodBlocked time.Duration
	consBlocked time.Duration

	// Optional registry histograms observing each blocking episode in
	// seconds; nil (the default) means disabled.
	prodHist *stats.Histogram
	consHist *stats.Histogram
}

// SetBlockStats attaches histograms that record every producer/consumer
// blocking episode (in seconds) alongside the cumulative TakeStats
// durations. Either may be nil.
func (r *Ring) SetBlockStats(producer, consumer *stats.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prodHist = producer
	r.consHist = consumer
}

// SetDataNotify installs a hook invoked after every successful Put or
// TryPut, outside the ring lock. An event-driven consumer (a transport
// shard's send pump) uses it instead of parking a goroutine in Get; the
// hook must be cheap and must tolerate spurious and coalesced calls.
func (r *Ring) SetDataNotify(fn func()) {
	r.mu.Lock()
	r.dataFn = fn
	r.mu.Unlock()
}

// New returns a ring of n slots, each able to hold OSDUs up to maxOSDU
// bytes. The slot count bound is what the paper's Orch.Prime fills; the
// maxOSDU bound comes from the MaxOSDUSize QoS parameter (§5).
func New(clk clock.Clock, n, maxOSDU int) *Ring {
	if n <= 0 || maxOSDU <= 0 {
		panic("cbuf: slot count and max OSDU size must be positive")
	}
	backing := make([]byte, n*maxOSDU)
	r := &Ring{
		clk:    clk,
		slots:  make([][]byte, n),
		sizes:  make([]int, n),
		seqs:   make([]core.OSDUSeq, n),
		events: make([]core.EventPattern, n),
	}
	for i := range r.slots {
		r.slots[i] = backing[i*maxOSDU : (i+1)*maxOSDU]
	}
	r.scratch = make([]byte, maxOSDU)
	r.notFull = sync.NewCond(&r.mu)
	r.notEmpty = sync.NewCond(&r.mu)
	return r
}

// Cap returns the slot count.
func (r *Ring) Cap() int { return len(r.slots) }

// Len returns the number of queued OSDUs.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Free returns the number of free slots.
func (r *Ring) Free() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots) - r.count
}

// Full reports whether every slot is occupied — the sink LLO's "buffers
// primed" condition.
func (r *Ring) Full() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count == len(r.slots)
}

// Put copies u into the next free slot, blocking while the ring is full.
// The payload must not exceed the ring's max OSDU size. It returns
// ErrClosed after Close.
func (r *Ring) Put(u OSDU) error {
	r.mu.Lock()
	if len(u.Payload) > len(r.slots[0]) {
		r.mu.Unlock()
		return errors.New("cbuf: OSDU exceeds negotiated MaxOSDUSize")
	}
	if r.count == len(r.slots) && !r.closed {
		start := r.clk.Now()
		for r.count == len(r.slots) && !r.closed {
			r.notFull.Wait()
		}
		d := r.clk.Since(start)
		r.prodBlocked += d
		r.prodHist.Observe(d.Seconds())
	}
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	r.write(u)
	fn := r.dataFn
	r.mu.Unlock()
	if fn != nil {
		fn()
	}
	return nil
}

// TryPut is Put without blocking; it reports whether the OSDU was queued.
func (r *Ring) TryPut(u OSDU) (bool, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false, ErrClosed
	}
	if len(u.Payload) > len(r.slots[0]) {
		r.mu.Unlock()
		return false, errors.New("cbuf: OSDU exceeds negotiated MaxOSDUSize")
	}
	if r.count == len(r.slots) {
		r.mu.Unlock()
		return false, nil
	}
	r.write(u)
	fn := r.dataFn
	r.mu.Unlock()
	if fn != nil {
		fn()
	}
	return true, nil
}

// write appends u; caller holds mu and has checked capacity.
func (r *Ring) write(u OSDU) {
	i := r.tail
	copy(r.slots[i], u.Payload)
	r.sizes[i] = len(u.Payload)
	r.seqs[i] = u.Seq
	r.events[i] = u.Event
	r.tail = (r.tail + 1) % len(r.slots)
	r.count++
	r.notEmpty.Signal()
	if r.count == len(r.slots) {
		r.signalFull()
	}
}

// signalFull pokes every NotifyFull subscriber; caller holds mu. Sends
// never block: the channels are level triggers, not counters.
func (r *Ring) signalFull() {
	for _, ch := range r.fullChs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// NotifyFull registers ch for a non-blocking signal whenever a Put
// occupies the last free slot, and immediately when the ring is already
// full or closed. The sink LLO waits on it for the §6.2.1 "receive
// buffers are eventually full" point instead of polling.
func (r *Ring) NotifyFull(ch chan<- struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fullChs = append(r.fullChs, ch)
	if r.count == len(r.slots) || r.closed {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// StopNotifyFull removes a channel registered with NotifyFull.
func (r *Ring) StopNotifyFull(ch chan<- struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.fullChs {
		if c == ch {
			r.fullChs = append(r.fullChs[:i], r.fullChs[i+1:]...)
			return
		}
	}
}

// Get removes and returns the oldest OSDU, blocking while the ring is
// empty or the delivery gate is held. The returned payload points into a
// per-ring scratch buffer and is valid until the consumer's next Get or
// TryGet; rings support exactly one consumer. Callers that keep data
// longer must copy it.
func (r *Ring) Get() (OSDU, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if (r.count == 0 || r.gated) && !r.closed {
		start := r.clk.Now()
		for (r.count == 0 || r.gated) && !r.closed {
			r.notEmpty.Wait()
		}
		d := r.clk.Since(start)
		r.consBlocked += d
		r.consHist.Observe(d.Seconds())
	}
	if r.count == 0 {
		return OSDU{}, ErrClosed // only reachable when closed
	}
	return r.read(), nil
}

// TryGet is Get without blocking; ok reports whether an OSDU was returned.
//
// The scratch-buffer lifetime is a contract the transport's send pump
// relies on: being the ring's only consumer, it segments an OSDU straight
// out of the returned payload across several shard events and does not
// call Get or TryGet again until the last fragment is encoded. Nothing
// else may write the scratch buffer — Drain, DropNewest and Flush leave it
// alone, and ResizeSlots replaces it with a larger one without touching
// the slice already handed out.
func (r *Ring) TryGet() (u OSDU, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 || r.gated {
		if r.closed && r.count == 0 {
			return OSDU{}, false, ErrClosed
		}
		return OSDU{}, false, nil
	}
	return r.read(), true, nil
}

// read pops the head into the scratch buffer; caller holds mu and has
// checked count. Copying out lets the slot be reused by producers
// immediately while the consumer still examines the payload.
func (r *Ring) read() OSDU {
	i := r.head
	n := r.sizes[i]
	copy(r.scratch, r.slots[i][:n])
	u := OSDU{
		Seq:     r.seqs[i],
		Event:   r.events[i],
		Payload: r.scratch[:n],
	}
	r.head = (r.head + 1) % len(r.slots)
	r.count--
	r.consumed = u.Seq + 1
	r.notFull.Signal()
	return u
}

// Consumed returns the watermark one past the last OSDU handed to the
// consumer. Because read() advances it under the ring lock, the value is
// exact: after Seal no Get can pop, so Consumed is precisely where a
// resumed stream must restart.
func (r *Ring) Consumed() core.OSDUSeq {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.consumed
}

// Seal closes the ring AND discards everything still queued, returning the
// consumed watermark. Unlike Close — which lets the consumer drain queued
// OSDUs — Seal guarantees that no further OSDU will ever be handed out, so
// the returned watermark is an exact resume point for the session layer:
// every OSDU at or above it must be replayed on the successor VC, and
// nothing below it may be (§3.3 transparent re-establishment, extended to
// the failure path).
func (r *Ring) Seal() core.OSDUSeq {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.sealed = true
	r.head, r.tail, r.count = 0, 0, 0
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	r.signalFull()
	return r.consumed
}

// Sealed reports whether Seal has been called.
func (r *Ring) Sealed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealed
}

// Drain pops every OSDU still queued (ignoring the delivery gate) and
// returns them oldest-first with copied payloads — unlike Get, the results
// do not alias the scratch buffer. The session layer uses it after a
// failure teardown to recover accepted-but-untransmitted OSDUs from the
// send-side ring for replay on the successor VC.
func (r *Ring) Drain() []OSDU {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return nil
	}
	out := make([]OSDU, 0, r.count)
	for r.count > 0 {
		i := r.head
		n := r.sizes[i]
		p := make([]byte, n)
		copy(p, r.slots[i][:n])
		out = append(out, OSDU{Seq: r.seqs[i], Event: r.events[i], Payload: p})
		r.head = (r.head + 1) % len(r.slots)
		r.count--
		r.consumed = r.seqs[i] + 1
	}
	r.notFull.Broadcast()
	return out
}

// DropNewest discards the most recently queued OSDU, returning its
// sequence number. This is the source-side compensation of
// Orch.Regulate: "discards are performed at the source by incrementing
// the source shared buffer pointer", letting the application immediately
// overwrite the dropped OSDU (§6.3.1.1).
func (r *Ring) DropNewest() (core.OSDUSeq, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return 0, false
	}
	r.tail = (r.tail - 1 + len(r.slots)) % len(r.slots)
	r.count--
	seq := r.seqs[r.tail]
	r.notFull.Signal()
	return seq, true
}

// Flush discards every queued OSDU, returning how many were dropped. Used
// when a stopped source seeks elsewhere: without it "a short burst of
// media buffered from the previous play would be discernible" (§6.2.1).
func (r *Ring) Flush() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.count
	r.head, r.tail, r.count = 0, 0, 0
	r.notFull.Broadcast()
	return n
}

// HoldDelivery closes the delivery gate: producers may continue filling
// slots, but Get blocks even when data is queued. This is how the sink
// LLO primes a connection (§6.2.1).
func (r *Ring) HoldDelivery() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gated = true
}

// ReleaseDelivery opens the delivery gate, waking blocked consumers —
// the sink half of the atomic Orch.Start (§6.2.2).
func (r *Ring) ReleaseDelivery() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gated = false
	r.notEmpty.Broadcast()
}

// Gated reports whether the delivery gate is held.
func (r *Ring) Gated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gated
}

// Close unblocks all waiters. Queued OSDUs may still be drained with Get;
// afterwards Get returns ErrClosed, and Put fails immediately.
func (r *Ring) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
	r.signalFull() // wake NotifyFull waiters so they observe the close
}

// Closed reports whether Close has been called.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// TakeStats returns the blocking times accumulated since the previous call
// and resets them — one call per regulation interval (§6.3.1.2).
func (r *Ring) TakeStats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Stats{ProducerBlocked: r.prodBlocked, ConsumerBlocked: r.consBlocked}
	r.prodBlocked, r.consBlocked = 0, 0
	return s
}

// SlotSize returns the per-slot capacity in bytes (the MaxOSDUSize bound).
func (r *Ring) SlotSize() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots[0])
}

// ResizeSlots re-allocates every slot to hold OSDUs up to maxOSDU bytes,
// preserving queued contents and all waiters. It is the buffer half of
// the paper's transparent re-establishment (§3.3): when re-negotiation
// changes MaxOSDUSize the connection's buffers are rebuilt in place
// "maintaining buffers and protocol state over the successive
// connections". Shrinking below the size of a queued OSDU fails.
func (r *Ring) ResizeSlots(maxOSDU int) error {
	if maxOSDU <= 0 {
		return errors.New("cbuf: max OSDU size must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.count; i++ {
		idx := (r.head + i) % len(r.slots)
		if r.sizes[idx] > maxOSDU {
			return errors.New("cbuf: queued OSDU exceeds new slot size")
		}
	}
	n := len(r.slots)
	backing := make([]byte, n*maxOSDU)
	slots := make([][]byte, n)
	sizes := make([]int, n)
	seqs := make([]core.OSDUSeq, n)
	events := make([]core.EventPattern, n)
	for i := range slots {
		slots[i] = backing[i*maxOSDU : (i+1)*maxOSDU]
	}
	for i := 0; i < r.count; i++ {
		idx := (r.head + i) % n
		copy(slots[i], r.slots[idx][:r.sizes[idx]])
		sizes[i] = r.sizes[idx]
		seqs[i] = r.seqs[idx]
		events[i] = r.events[idx]
	}
	r.slots, r.sizes, r.seqs, r.events = slots, sizes, seqs, events
	if maxOSDU > len(r.scratch) {
		r.scratch = make([]byte, maxOSDU)
	}
	r.head = 0
	r.tail = r.count % n
	return nil
}

// NextSeq returns the sequence number of the OSDU at the head of the ring
// without removing it; ok is false when the ring is empty.
func (r *Ring) NextSeq() (core.OSDUSeq, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return 0, false
	}
	return r.seqs[r.head], true
}

// LastSeq returns the sequence number of the most recently queued OSDU
// still in the ring; ok is false when the ring is empty.
func (r *Ring) LastSeq() (core.OSDUSeq, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count == 0 {
		return 0, false
	}
	return r.seqs[(r.tail-1+len(r.slots))%len(r.slots)], true
}
