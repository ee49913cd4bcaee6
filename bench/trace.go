package main

import (
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
)

// epoch is the instant every harness timestamp counts from.
var epoch = time.Now()

func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// tracer records, from outside the system, when each OSDU crossed the
// netif seam: the benchmark wraps every host's netif.Network, stamps Send
// entry and handler entry, and names the OSDU by decoding the TPDU before
// the handler returns (the payload is recycled afterwards). Only an OSDU's
// last fragment is stamped, and only the first time it passes, so a
// retransmission does not move a stamp. A nil *tracer traces nothing.
type tracer struct {
	horizon time.Duration // stamps are kept for OSDUs due within this long of a stream's start

	mu    sync.RWMutex
	vcs   map[core.VCID]*vcTrace
	dueAt [][]int64 // per stream, by sequence; written by that stream's generator only
}

// vcTrace holds one VC's stamps, indexed by OSDU sequence number.
type vcTrace struct {
	stream  int
	sink    int // index of the world's sink reading this VC; -1 for a relay's ingest VC
	sendAt  []atomic.Int64
	handAt  []atomic.Int64
	ingress *vcTrace // the ingest VC feeding this egress VC through a relay, or nil
}

// newTracer returns a tracer for a run whose traffic lasts about d.
func newTracer(d time.Duration) *tracer {
	return &tracer{horizon: d + 8*time.Second, vcs: make(map[core.VCID]*vcTrace)}
}

// capacityFor is how many of st's sequence numbers fit the horizon.
func (t *tracer) capacityFor(st *stream) int {
	return int(t.horizon/st.tick+1) * st.burst
}

// route tells the tracer that VC id carries st's OSDUs towards the world's
// sink number sink (-1: towards a relay). via names the ingest VC when id
// is a relay egress.
func (t *tracer) route(id core.VCID, st *stream, sink int, via core.VCID) {
	if t == nil {
		return
	}
	n := t.capacityFor(st)
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.dueAt) <= st.idx {
		t.dueAt = append(t.dueAt, nil)
	}
	if t.dueAt[st.idx] == nil {
		t.dueAt[st.idx] = make([]int64, n)
	}
	t.vcs[id] = &vcTrace{
		stream: st.idx, sink: sink, ingress: t.vcs[via],
		sendAt: make([]atomic.Int64, n), handAt: make([]atomic.Int64, n),
	}
}

// due records when the generator was due to write (stream, seq).
func (t *tracer) due(stream int, seq uint64, at int64) {
	if d := t.dueAt[stream]; seq < uint64(len(d)) {
		d[seq] = at
	}
}

// stamp records payload's passage if it is the last fragment of a data
// TPDU on a routed VC.
func (t *tracer) stamp(payload []byte, now int64, atHandler bool) {
	m, err := pdu.Decode(payload)
	if err != nil {
		return
	}
	d, ok := m.(*pdu.Data)
	if !ok || d.Frag+1 != d.FragCount {
		return
	}
	t.mu.RLock()
	v := t.vcs[d.VC]
	t.mu.RUnlock()
	if v == nil || uint64(d.OSDU) >= uint64(len(v.sendAt)) {
		return
	}
	if atHandler {
		v.handAt[d.OSDU].CompareAndSwap(0, now)
	} else {
		v.sendAt[d.OSDU].CompareAndSwap(0, now)
	}
}

// wrap interposes the tracer on nw.
func (t *tracer) wrap(nw netif.Network) netif.Network { return &tracedNet{Network: nw, tr: t} }

// tracedNet is the benchmark's netif.Network wrapper. Beyond taking two
// timestamps and decoding the payload it forwards everything untouched.
type tracedNet struct {
	netif.Network
	tr *tracer
}

func (n *tracedNet) Send(p netif.Packet) error {
	n.tr.stamp(p.Payload, sinceEpoch(), false)
	return n.Network.Send(p)
}

// SendBatch keeps a batching substrate batching; on one that is not, it
// degrades to per-packet Send, as the netif.BatchSender contract allows.
func (n *tracedNet) SendBatch(ps []netif.Packet) error {
	now := sinceEpoch()
	for _, p := range ps {
		n.tr.stamp(p.Payload, now, false)
	}
	if bs, ok := n.Network.(netif.BatchSender); ok {
		return bs.SendBatch(ps)
	}
	var first error
	for _, p := range ps {
		if err := n.Network.Send(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (n *tracedNet) SetHandler(id core.HostID, h netif.Handler) error {
	if h == nil {
		return n.Network.SetHandler(id, nil)
	}
	return n.Network.SetHandler(id, func(p netif.Packet) {
		n.tr.stamp(p.Payload, sinceEpoch(), true)
		h(p)
	})
}

// spans are the per-OSDU intervals between stamps, one sample per sink
// delivery of an OSDU due inside the window, each slice sorted.
type spans struct {
	src  []int64 // due → transport's Send of the last fragment at the source
	wire []int64 // Send entry → destination handler entry, summed over the hops crossed
	hop  []int64 // relay handler entry → relay's Send of the last fragment on this egress
	sink []int64 // handler entry of the last fragment at the sink host → Read returned
}

// spans pairs the stamps up once the run is over and every reader has
// exited.
func (t *tracer) spans(w *world, winStart, winEnd int64) spans {
	var sp spans
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, v := range t.vcs {
		if v.sink < 0 || !w.sinks[v.sink].exited {
			continue
		}
		readAt := w.sinks[v.sink].readAt
		dueAt := t.dueAt[v.stream]
		for seq := range dueAt {
			due, rd := dueAt[seq], readAt[seq]
			send, hand := v.sendAt[seq].Load(), v.handAt[seq].Load()
			if due < winStart || due >= winEnd || rd == 0 || send == 0 || hand == 0 {
				continue
			}
			first, wire := send, hand-send
			if u := v.ingress; u != nil {
				usend, uhand := u.sendAt[seq].Load(), u.handAt[seq].Load()
				if usend == 0 || uhand == 0 {
					continue
				}
				first, wire = usend, wire+uhand-usend
				sp.hop = append(sp.hop, send-uhand)
			}
			sp.src = append(sp.src, first-due)
			sp.wire = append(sp.wire, wire)
			sp.sink = append(sp.sink, rd-hand)
		}
	}
	sortInt64(sp.src)
	sortInt64(sp.wire)
	sortInt64(sp.hop)
	sortInt64(sp.sink)
	return sp
}
