package transport

import "sync"

// Buffer ownership on the data path (DESIGN.md §14 has the whole picture).
//
// Every data or ack TPDU lives in exactly one transport-owned, recycled
// buffer on each side of the wire:
//
//   - Sending, a TPDU is encoded once. A non-retransmitting VC encodes into
//     its shard's tx buffer, which netif.Send borrows and the next TPDU
//     overwrites; a correcting VC encodes into a buffer from its own free
//     list, and that encoded buffer is the retransmit entry until the
//     cumulative ack covers it (retransWindow, send.go).
//   - Receiving, Entity.onPacket verifies the CRC, decodes the header onto
//     its stack and copies the rest once into a pooled rxBuf; the shard
//     event owns it, then the reorder stage (pendingOut) if the OSDU must
//     wait its turn, and it is released at exactly one place: accepted by
//     the ring or the tap, recognised as a duplicate, discarded as
//     overflow, dropped by a full handoff ring, or VC teardown.
//
// Dropping a buffer for the collector instead of releasing it is always
// safe; using one after release never is. PoisonOnRelease makes the second
// mistake loud.

// PoisonOnRelease is a test-only switch, not configuration: when set,
// every buffer the data path releases — receive buffers, reassembly
// buffers, retransmit entries — is overwritten first, so a use after
// release corrupts an OSDU that some exact-delivery assertion then
// rejects. Set it from TestMain, before the first Entity exists; nothing
// reads it under a lock.
var PoisonOnRelease bool

// poison overwrites a buffer that is being released, when the switch is on.
func poison(b []byte) {
	if PoisonOnRelease {
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// rxBuf is one pooled receive buffer: the transport's single copy of a
// received TPDU's variable part.
type rxBuf struct {
	b    []byte   // data TPDU: the fragment payload
	naks []uint64 // ack TPDU: the selective-NAK list
}

// rxPool recycles rxBufs between the substrate's delivery goroutines
// (onPacket takes) and the shard loops (which release). Shared by every
// entity in the process: buffers grow to the largest TPDU they have
// carried and are interchangeable.
var rxPool = sync.Pool{New: func() any { return new(rxBuf) }}

func getRxBuf() *rxBuf { return rxPool.Get().(*rxBuf) }

// release returns the buffer to the pool; the caller must hold no slice
// into it afterwards. A nil buffer (an ack without NAKs carries none) is
// a no-op.
func (rb *rxBuf) release() {
	if rb == nil {
		return
	}
	poison(rb.b[:cap(rb.b)])
	if PoisonOnRelease {
		naks := rb.naks[:cap(rb.naks)]
		for i := range naks {
			naks[i] = ^uint64(0) // a sequence number no TPDU carries
		}
	}
	rxPool.Put(rb)
}

// nakList returns the NAKs an ack event's buffer carries; nil-safe.
func (rb *rxBuf) nakList() []uint64 {
	if rb == nil {
		return nil
	}
	return rb.naks
}
