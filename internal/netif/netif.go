// Package netif defines the narrow network-substrate interface the
// transport, reservation and orchestration layers are written against.
// The paper's services sit on a substitutable network: the transputer
// emulator of §2.1 merely stands in for a real high-speed network, with
// an ST-II-style reservation protocol assumed underneath (§7). netif is
// that seam in code — internal/netem (the in-process emulator) and
// internal/udpnet (real UDP sockets) both implement Network, and every
// layer above picks its substrate at composition time.
package netif

import (
	"cmtos/internal/core"
	"cmtos/internal/qos"
	"fmt"
)

// Priority classes for substrate scheduling. Control traffic (connection
// management, orchestration OPDUs) preempts guaranteed media traffic,
// which preempts best-effort traffic — the "special internal control VC"
// with guaranteed bandwidth of §5. On netem these select per-link queue
// classes; on udpnet they select DSCP-style strict-priority send queues.
type Priority uint8

// Priorities, highest first. NumPriorities bounds the class space for
// per-priority queue arrays.
const (
	PrioControl Priority = iota
	PrioGuaranteed
	PrioBestEffort
	NumPriorities
)

// String returns the priority's name.
func (p Priority) String() string {
	switch p {
	case PrioControl:
		return "control"
	case PrioGuaranteed:
		return "guaranteed"
	case PrioBestEffort:
		return "best-effort"
	}
	return fmt.Sprintf("prio(%d)", uint8(p))
}

// WireOverhead models the network-layer header cost per packet in bytes.
// Every substrate charges it identically so that the transport's
// bandwidth math (contract rate -> bytes/sec) and the substrate's
// admission math agree regardless of which substrate is underneath.
const WireOverhead = 32

// Packet is one substrate-layer datagram.
type Packet struct {
	Src, Dst core.HostID
	Flow     core.VCID // owning VC for per-flow accounting; 0 = none
	Prio     Priority
	Payload  []byte
	// Damaged marks payloads whose bits were flipped in transit; the
	// payload itself is also corrupted so checksums fail naturally.
	// Substrates must preserve Flow on damaged deliveries so the
	// transport can attribute the error to the owning VC.
	Damaged bool
}

// Size returns the packet's size in bytes for transmission-time and
// admission purposes.
func (p *Packet) Size() int { return len(p.Payload) + WireOverhead }

// Handler receives packets delivered to a host. Handlers run on the
// substrate's delivery goroutine; they must not block for long.
//
// The handler borrows the packet's Payload: it is valid only until the
// handler returns, after which the substrate may recycle the backing
// buffer for the next datagram (the UDP substrate's zero-allocation
// receive path does). A handler that keeps payload bytes past its return
// must copy them. Network.Send states the mirror-image rule for the
// sending side.
type Handler func(Packet)

// BatchSender is an optional substrate capability: enqueue many packets
// with one call, letting a batching substrate amortise per-packet
// locking and marshalling, and a batching sender (sendmmsg-style) fill
// whole syscall batches. Semantics match calling Send per packet —
// asynchronous, unreliable, packets that fail validation are skipped —
// except that the first validation error is returned only after the
// rest of the batch has been enqueued. Callers must feature-test:
//
//	if bs, ok := nw.(netif.BatchSender); ok { err = bs.SendBatch(ps) }
type BatchSender interface {
	SendBatch(ps []Packet) error
}

// Network is the substrate contract. All methods are safe for concurrent
// use. Implementations: *netem.Network (emulated links, exact per-hop
// reservation) and *udpnet.Network (real UDP sockets, advisory local
// admission).
type Network interface {
	// Send transmits one packet to the single host p.Dst. Send enqueues
	// and returns; delivery is asynchronous and may silently fail (loss,
	// damage, queue overflow) exactly like a real network.
	//
	// Send borrows p.Payload: the bytes are the caller's again as soon as
	// Send (or BatchSender.SendBatch) returns, and the transport encodes
	// its next TPDU over them. A substrate — or a wrapper in front of one
	// — that holds a packet past that point (a link queue, a delay or
	// reorder stage) must copy the payload first; one that runs the
	// destination's Handler before returning need not.
	Send(p Packet) error
	// SetHandler installs the packet receive handler for a local host.
	SetHandler(id core.HostID, h Handler) error
	// Route returns the hop sequence a packet from src to dst follows,
	// including both endpoints.
	Route(src, dst core.HostID) ([]core.HostID, error)
	// PathCapability reports the best QoS the substrate can currently
	// offer a flow of pktSize-byte packets from src to dst, given the
	// resources already committed. The transport's QoS negotiation
	// weakens requested specs against it.
	PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error)
	// MTU returns the substrate's maximum payload size per packet in
	// bytes; 0 means unbounded. Transport entities clamp their TPDU
	// size so one TPDU always fits one substrate packet.
	MTU() int
	// Close shuts the substrate down; no handler runs after Close
	// returns and subsequent Sends fail.
	Close()
}
