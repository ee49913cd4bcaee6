// Package netem is the in-process packet network emulator that stands in
// for the paper's transputer-based high-speed network emulator (§2.1). It
// provides hosts joined by links with configurable bandwidth, propagation
// delay, bounded random jitter, packet-loss models (Bernoulli and
// Gilbert-Elliott bursts), residual bit errors, bounded drop-tail queues,
// and reservation-aware priority scheduling (control > guaranteed >
// best-effort), plus static shortest-path routing across intermediate
// nodes.
//
// Transport entities attach to hosts and exchange opaque payloads; the
// emulator damages, delays, drops and forwards them exactly as the paper's
// testbed network would, which is what the QoS machinery above needs to
// have something real to negotiate against.
package netem

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// Network implements the substrate contract every higher layer consumes.
var _ netif.Network = (*Network)(nil)

// Priority, Packet and Handler are the substrate-neutral types from
// netif; netem is one Network implementation behind that interface. The
// aliases keep this package's historical API intact.
type (
	Priority = netif.Priority
	Packet   = netif.Packet
	Handler  = netif.Handler
)

// Priorities, highest first, re-exported for in-package use.
const (
	PrioControl    = netif.PrioControl
	PrioGuaranteed = netif.PrioGuaranteed
	PrioBestEffort = netif.PrioBestEffort
	numPrios       = int(netif.NumPriorities)
)

// headerOverhead models the network-layer header cost per packet.
const headerOverhead = netif.WireOverhead

// LossModel decides packet drops. Implementations are driven by the
// owning link's RNG and need not be safe for concurrent use.
type LossModel interface {
	// Drop reports whether the next packet is lost.
	Drop(r *rand.Rand) bool
}

// NoLoss never drops.
type NoLoss struct{}

// Drop implements LossModel.
func (NoLoss) Drop(*rand.Rand) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct{ P float64 }

// Drop implements LossModel.
func (b Bernoulli) Drop(r *rand.Rand) bool { return r.Float64() < b.P }

// GilbertElliott is the classic two-state burst-loss model: in the Good
// state packets drop with PLossGood, in the Bad state with PLossBad; the
// chain moves Good→Bad with PGoodBad and Bad→Good with PBadGood per
// packet. It reproduces the correlated loss bursts ("glitches", §3.6)
// that knock individual VCs out of synchronisation.
type GilbertElliott struct {
	PGoodBad, PBadGood  float64
	PLossGood, PLossBad float64
	bad                 bool
}

// Clone implements the optional cloning interface: the chain state is
// per-link, so each link gets its own copy of a configured model.
func (g *GilbertElliott) Clone() LossModel {
	dup := *g
	dup.bad = false
	return &dup
}

// Drop implements LossModel.
func (g *GilbertElliott) Drop(r *rand.Rand) bool {
	if g.bad {
		if r.Float64() < g.PBadGood {
			g.bad = false
		}
	} else if r.Float64() < g.PGoodBad {
		g.bad = true
	}
	p := g.PLossGood
	if g.bad {
		p = g.PLossBad
	}
	return r.Float64() < p
}

// LinkConfig describes one simplex link.
type LinkConfig struct {
	// Bandwidth in bytes per second; must be positive.
	Bandwidth float64
	// Delay is the propagation delay.
	Delay time.Duration
	// Jitter is the maximum additional uniformly distributed delay.
	Jitter time.Duration
	// Loss decides packet drops; nil means no loss.
	Loss LossModel
	// BitErrorRate is the probability that any single payload bit is
	// flipped in transit (damaged packets still arrive).
	BitErrorRate float64
	// QueueLen bounds the per-priority output queue in packets;
	// 0 means DefaultQueueLen. The queue is drop-tail.
	QueueLen int
	// Seed seeds the link's RNG; 0 picks a fixed default so runs are
	// reproducible.
	Seed int64
}

// DefaultQueueLen bounds output queues when LinkConfig.QueueLen is zero.
const DefaultQueueLen = 256

// link is one simplex link with its transmitter goroutine.
type link struct {
	from, to core.HostID
	cfg      LinkConfig
	net      *Network
	rng      *rand.Rand

	mu       sync.Mutex
	cond     *sync.Cond
	queues   [numPrios][]queuedPkt
	heads    [numPrios]int // first live entry of each queue slice
	queued   int
	closed   bool
	reserved float64 // bytes/sec promised to guaranteed flows

	// wire carries transmitted packets to the propagation goroutine,
	// which delivers them in FIFO order at their computed arrival times
	// (monotonic per link, so jitter never reorders a link's traffic).
	wire chan wirePacket

	stats LinkStats
	si    linkInstr
}

// queuedPkt is a queued packet plus its enqueue time; at is only
// stamped when the queue-delay histogram is attached.
type queuedPkt struct {
	pkt Packet
	at  time.Time
}

// linkInstr holds the link's registry instruments; all nil when metrics
// are disabled (every update is then a no-op).
type linkInstr struct {
	sentPkts   *stats.Counter
	sentBytes  *stats.Counter
	dropped    *stats.Counter
	damaged    *stats.Counter
	overflows  *stats.Counter
	queueDepth *stats.Gauge
	queueDelay *stats.Histogram
}

func (l *link) attachStats(root stats.Scope) {
	if !root.Enabled() {
		return
	}
	sc := root.Scope(fmt.Sprintf("link/%d-%d", uint32(l.from), uint32(l.to)))
	l.si = linkInstr{
		sentPkts:   sc.Counter("sent_packets"),
		sentBytes:  sc.Counter("sent_bytes"),
		dropped:    sc.Counter("dropped_packets"),
		damaged:    sc.Counter("damaged_packets"),
		overflows:  sc.Counter("queue_overflows"),
		queueDepth: sc.Gauge("queue_depth"),
		queueDelay: sc.Histogram("queue_delay_seconds", stats.DurationBuckets()),
	}
}

// wirePacket is a transmitted packet and its arrival deadline.
type wirePacket struct {
	pkt      Packet
	arriveAt time.Time
}

// LinkStats counts per-link activity for the experiment harness.
type LinkStats struct {
	Sent      int // packets transmitted
	Dropped   int // lost to the loss model
	Damaged   int // delivered with bit errors
	Overflows int // dropped at the queue
	Bytes     int64
}

// Network is a set of hosts joined by links. Create with New, add hosts
// and links, then Start. All methods are safe for concurrent use after
// Start.
type Network struct {
	clk clock.Clock

	mu      sync.Mutex
	scope   stats.Scope
	hosts   map[core.HostID]*host
	links   map[[2]core.HostID]*link
	routes  map[[2]core.HostID]core.HostID // (at,dst) -> next hop
	started bool
	closed  bool
}

type host struct {
	id      core.HostID
	handler Handler
	inbox   chan Packet
	done    chan struct{}
}

// New returns an empty network using clk for all timing.
func New(clk clock.Clock) *Network {
	return &Network{
		clk:    clk,
		hosts:  make(map[core.HostID]*host),
		links:  make(map[[2]core.HostID]*link),
		routes: make(map[[2]core.HostID]core.HostID),
	}
}

// AddHost registers a host. The handler receives packets addressed to it;
// a nil handler discards. Must be called before Start.
func (n *Network) AddHost(id core.HostID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("netem: AddHost after Start")
	}
	if _, dup := n.hosts[id]; dup {
		return fmt.Errorf("netem: duplicate host %v", id)
	}
	n.hosts[id] = &host{
		id:      id,
		handler: h,
		inbox:   make(chan Packet, 1024),
		done:    make(chan struct{}),
	}
	return nil
}

// SetHandler replaces a host's packet handler (used by transport entities
// that attach after network construction).
func (n *Network) SetHandler(id core.HostID, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	hst, ok := n.hosts[id]
	if !ok {
		return fmt.Errorf("netem: unknown host %v", id)
	}
	hst.handler = h
	return nil
}

// AddLink joins a and b with a pair of simplex links sharing cfg. Must be
// called before Start.
func (n *Network) AddLink(a, b core.HostID, cfg LinkConfig) error {
	if err := n.AddSimplexLink(a, b, cfg); err != nil {
		return err
	}
	return n.AddSimplexLink(b, a, cfg)
}

// AddSimplexLink adds a one-way link from a to b. Must be called before
// Start.
func (n *Network) AddSimplexLink(a, b core.HostID, cfg LinkConfig) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("netem: AddSimplexLink after Start")
	}
	if cfg.Bandwidth <= 0 {
		return errors.New("netem: link bandwidth must be positive")
	}
	if _, ok := n.hosts[a]; !ok {
		return fmt.Errorf("netem: unknown host %v", a)
	}
	if _, ok := n.hosts[b]; !ok {
		return fmt.Errorf("netem: unknown host %v", b)
	}
	key := [2]core.HostID{a, b}
	if _, dup := n.links[key]; dup {
		return fmt.Errorf("netem: duplicate link %v->%v", a, b)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = DefaultQueueLen
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	// Stateful loss models must not be shared across links; clone them.
	if c, ok := cfg.Loss.(interface{ Clone() LossModel }); ok {
		cfg.Loss = c.Clone()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = int64(a)<<32 | int64(b) | 1
	}
	l := &link{
		from: a, to: b, cfg: cfg, net: n,
		rng:  rand.New(rand.NewSource(seed)),
		wire: make(chan wirePacket, 4*cfg.QueueLen),
	}
	l.cond = sync.NewCond(&l.mu)
	n.links[key] = l
	return nil
}

// SetStats attaches a metrics scope to the network; per-link
// instruments are created under link/<from>-<to>/ when Start runs.
// Must be called before Start.
func (n *Network) SetStats(sc stats.Scope) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.scope = sc
}

// Start computes routes and starts every link transmitter and host
// delivery loop.
func (n *Network) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("netem: already started")
	}
	n.started = true
	n.computeRoutesLocked()
	for _, l := range n.links {
		l.attachStats(n.scope)
	}
	for _, h := range n.hosts {
		go h.run()
	}
	for _, l := range n.links {
		go l.run()
	}
	return nil
}

// Close shuts down all links and hosts. Packets in flight are discarded.
func (n *Network) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	hosts := make([]*host, 0, len(n.hosts))
	for _, h := range n.hosts {
		hosts = append(hosts, h)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.close()
	}
	for _, h := range hosts {
		close(h.done)
	}
}

// computeRoutesLocked fills the next-hop table with BFS shortest paths.
func (n *Network) computeRoutesLocked() {
	// Adjacency from the link set.
	adj := make(map[core.HostID][]core.HostID)
	for key := range n.links {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, peers := range adj {
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	}
	// BFS from every destination over reversed edges would be cheaper,
	// but host counts are small; BFS from every source is clear.
	for src := range n.hosts {
		prev := map[core.HostID]core.HostID{src: src}
		queue := []core.HostID{src}
		for len(queue) > 0 {
			at := queue[0]
			queue = queue[1:]
			for _, next := range adj[at] {
				if _, seen := prev[next]; !seen {
					prev[next] = at
					queue = append(queue, next)
				}
			}
		}
		for dst := range n.hosts {
			if dst == src {
				continue
			}
			if _, ok := prev[dst]; !ok {
				continue // unreachable
			}
			// Walk back from dst to find the first hop out of src.
			hop := dst
			for prev[hop] != src {
				hop = prev[hop]
			}
			n.routes[[2]core.HostID{src, dst}] = hop
		}
	}
}

// Route returns the host-by-host path from src to dst, inclusive.
func (n *Network) Route(src, dst core.HostID) ([]core.HostID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routeLocked(src, dst)
}

func (n *Network) routeLocked(src, dst core.HostID) ([]core.HostID, error) {
	if src == dst {
		return []core.HostID{src}, nil
	}
	path := []core.HostID{src}
	at := src
	for at != dst {
		hop, ok := n.routes[[2]core.HostID{at, dst}]
		if !ok {
			return nil, fmt.Errorf("netem: no route %v -> %v", src, dst)
		}
		path = append(path, hop)
		at = hop
		if len(path) > len(n.hosts) {
			return nil, fmt.Errorf("netem: routing loop %v -> %v", src, dst)
		}
	}
	return path, nil
}

// RouteAvoiding returns a shortest path from src to dst that visits none
// of the avoid hosts as intermediates (src and dst themselves are always
// permitted). It is the routing half of failure recovery: when a hop on
// the reserved path dies, the session layer re-reserves around it.
func (n *Network) RouteAvoiding(src, dst core.HostID, avoid []core.HostID) ([]core.HostID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.routeAvoidingLocked(src, dst, avoid)
}

func (n *Network) routeAvoidingLocked(src, dst core.HostID, avoid []core.HostID) ([]core.HostID, error) {
	if src == dst {
		return []core.HostID{src}, nil
	}
	banned := make(map[core.HostID]bool, len(avoid))
	for _, h := range avoid {
		if h != src && h != dst {
			banned[h] = true
		}
	}
	// Fresh BFS over the constrained adjacency; the precomputed next-hop
	// table cannot express per-query exclusions.
	adj := make(map[core.HostID][]core.HostID)
	for key := range n.links {
		if banned[key[0]] || banned[key[1]] {
			continue
		}
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	for _, peers := range adj {
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	}
	prev := map[core.HostID]core.HostID{src: src}
	queue := []core.HostID{src}
	for len(queue) > 0 {
		at := queue[0]
		queue = queue[1:]
		for _, next := range adj[at] {
			if _, seen := prev[next]; !seen {
				prev[next] = at
				queue = append(queue, next)
			}
		}
	}
	if _, ok := prev[dst]; !ok {
		return nil, fmt.Errorf("netem: no route %v -> %v avoiding %v", src, dst, avoid)
	}
	path := []core.HostID{dst}
	for at := dst; at != src; {
		at = prev[at]
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// Send injects a packet at its source host. It fails if the network is
// not started or no route exists. Delivery is asynchronous: the packet
// sits in link queues and a host inbox after Send returns, so the emulator
// takes its own copy of the borrowed payload (netif.Network.Send), shared
// by every hop on the way there.
func (n *Network) Send(p Packet) error {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		return errors.New("netem: Send before Start")
	}
	if n.closed {
		n.mu.Unlock()
		return errors.New("netem: network closed")
	}
	if p.Src == p.Dst {
		h := n.hosts[p.Dst]
		n.mu.Unlock()
		if h == nil {
			return fmt.Errorf("netem: unknown host %v", p.Dst)
		}
		p.Payload = bytes.Clone(p.Payload)
		h.deliver(p)
		return nil
	}
	hop, ok := n.routes[[2]core.HostID{p.Src, p.Dst}]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netem: no route %v -> %v", p.Src, p.Dst)
	}
	l := n.links[[2]core.HostID{p.Src, hop}]
	n.mu.Unlock()
	p.Payload = bytes.Clone(p.Payload)
	l.enqueue(p)
	return nil
}

// forward moves a packet arriving at an intermediate node toward dst.
func (n *Network) forward(at core.HostID, p Packet) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	hop, ok := n.routes[[2]core.HostID{at, p.Dst}]
	if !ok {
		n.mu.Unlock()
		return // destination vanished; drop
	}
	l := n.links[[2]core.HostID{at, hop}]
	n.mu.Unlock()
	l.enqueue(p)
}

// deliverLocal hands a packet to the host's inbox.
func (n *Network) deliverLocal(id core.HostID, p Packet) {
	n.mu.Lock()
	h := n.hosts[id]
	n.mu.Unlock()
	if h != nil {
		h.deliver(p)
	}
}

func (h *host) deliver(p Packet) {
	select {
	case h.inbox <- p:
	case <-h.done:
	}
}

func (h *host) run() {
	for {
		select {
		case p := <-h.inbox:
			if h.handler != nil {
				h.handler(p)
			}
		case <-h.done:
			return
		}
	}
}

// enqueue appends to the priority queue, drop-tail per class.
func (l *link) enqueue(p Packet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	q := &l.queues[p.Prio]
	if len(*q)-l.heads[p.Prio] >= l.cfg.QueueLen {
		l.stats.Overflows++
		l.si.overflows.Inc()
		return
	}
	qp := queuedPkt{pkt: p}
	if l.si.queueDelay != nil {
		qp.at = l.net.clk.Now()
	}
	*q = append(*q, qp)
	l.queued++
	l.si.queueDepth.Add(1)
	l.cond.Signal()
}

func (l *link) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// dequeue blocks for the next packet in priority order.
func (l *link) dequeue() (Packet, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.queued == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return Packet{}, false
	}
	for prio := range l.queues {
		q := &l.queues[prio]
		head := l.heads[prio]
		if len(*q) > head {
			qp := (*q)[head]
			(*q)[head] = queuedPkt{} // release the payload reference
			head++
			// Advance a head index instead of shifting the slice: a
			// per-packet copy of the remaining queue is O(depth) and
			// turns deep queues quadratic. Compact only when the dead
			// prefix exceeds the live tail, which amortises to O(1).
			if head == len(*q) {
				*q = (*q)[:0]
				head = 0
			} else if head > len(*q)-head {
				n := copy(*q, (*q)[head:])
				for i := n; i < len(*q); i++ {
					(*q)[i] = queuedPkt{}
				}
				*q = (*q)[:n]
				head = 0
			}
			l.heads[prio] = head
			l.queued--
			l.si.queueDepth.Add(-1)
			if !qp.at.IsZero() {
				l.si.queueDelay.Observe(l.net.clk.Since(qp.at).Seconds())
			}
			return qp.pkt, true
		}
	}
	return Packet{}, false
}

// run is the transmitter: serialise (bandwidth), apply loss and damage,
// then hand the packet to the propagation goroutine with its arrival
// deadline. Arrival deadlines are kept monotonic per link so jitter never
// reorders a link's traffic (the emulator models a FIFO pipe).
func (l *link) run() {
	go l.propagate()
	defer close(l.wire)
	var lastArrival time.Time
	for {
		p, ok := l.dequeue()
		if !ok {
			return
		}
		// Transmission time at link bandwidth.
		txTime := time.Duration(float64(p.Size()) / l.cfg.Bandwidth * float64(time.Second))
		if txTime > 0 {
			l.net.clk.Sleep(txTime)
		}

		l.mu.Lock()
		if l.cfg.Loss.Drop(l.rng) {
			l.stats.Dropped++
			l.si.dropped.Inc()
			l.mu.Unlock()
			continue
		}
		jitter := time.Duration(0)
		if l.cfg.Jitter > 0 {
			jitter = time.Duration(l.rng.Int63n(int64(l.cfg.Jitter)))
		}
		if l.cfg.BitErrorRate > 0 && len(p.Payload) > 0 {
			bits := float64(len(p.Payload) * 8)
			if l.rng.Float64() < 1-pow1m(l.cfg.BitErrorRate, bits) {
				// Flipped in place: the payload is the copy Send took for
				// this destination, referenced by nothing else.
				bit := l.rng.Intn(len(p.Payload) * 8)
				p.Payload[bit/8] ^= 1 << (bit % 8)
				p.Damaged = true
				l.stats.Damaged++
				l.si.damaged.Inc()
			}
		}
		l.stats.Sent++
		l.stats.Bytes += int64(p.Size())
		l.si.sentPkts.Inc()
		l.si.sentBytes.Add(uint64(p.Size()))
		l.mu.Unlock()

		arriveAt := l.net.clk.Now().Add(l.cfg.Delay + jitter)
		if arriveAt.Before(lastArrival) {
			arriveAt = lastArrival
		}
		lastArrival = arriveAt
		l.wire <- wirePacket{pkt: p, arriveAt: arriveAt}
	}
}

// propagate delivers transmitted packets at their arrival deadlines, in
// transmission order.
func (l *link) propagate() {
	for wp := range l.wire {
		if wait := wp.arriveAt.Sub(l.net.clk.Now()); wait > 0 {
			l.net.clk.Sleep(wait)
		}
		if wp.pkt.Dst == l.to {
			l.net.deliverLocal(l.to, wp.pkt)
		} else {
			l.net.forward(l.to, wp.pkt)
		}
	}
}

// pow1m returns (1-p)^n — the probability that none of n independent
// p-probability bit errors occur. Computed as exp(n*log1p(-p)) so it
// stays accurate for tiny p and large n, where (1-p) rounds to 1 and
// math.Pow loses the exponentiation entirely.
func pow1m(p, n float64) float64 {
	if p <= 0 || n <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	return math.Exp(n * math.Log1p(-p))
}

// Degrade mutates a live link's loss model and jitter — the in-service
// degradation that soft guarantees exist to detect (§3.2's "the QoS level
// may degrade"). Pass a nil loss model to keep the current one.
func (n *Network) Degrade(from, to core.HostID, loss LossModel, jitter time.Duration) error {
	n.mu.Lock()
	l, ok := n.links[[2]core.HostID{from, to}]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("netem: no link %v->%v", from, to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if loss != nil {
		l.cfg.Loss = loss
	}
	if jitter >= 0 {
		l.cfg.Jitter = jitter
	}
	return nil
}

// Stats returns a snapshot of the directed link's counters.
func (n *Network) Stats(from, to core.HostID) (LinkStats, error) {
	n.mu.Lock()
	l, ok := n.links[[2]core.HostID{from, to}]
	n.mu.Unlock()
	if !ok {
		return LinkStats{}, fmt.Errorf("netem: no link %v->%v", from, to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats, nil
}

// Reserve sets aside bytesPerSec of guaranteed bandwidth on the directed
// link, failing if the remaining unreserved capacity is insufficient. A
// small fraction of each link is always withheld for control traffic.
func (n *Network) Reserve(from, to core.HostID, bytesPerSec float64) error {
	n.mu.Lock()
	l, ok := n.links[[2]core.HostID{from, to}]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("netem: no link %v->%v", from, to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if bytesPerSec <= 0 {
		return errors.New("netem: reservation must be positive")
	}
	if l.reserved+bytesPerSec > l.cfg.Bandwidth*reservableFraction {
		return fmt.Errorf("netem: link %v->%v cannot reserve %.0f B/s (%.0f of %.0f reserved)",
			from, to, bytesPerSec, l.reserved, l.cfg.Bandwidth*reservableFraction)
	}
	l.reserved += bytesPerSec
	return nil
}

// Release returns previously reserved bandwidth on the directed link.
func (n *Network) Release(from, to core.HostID, bytesPerSec float64) error {
	n.mu.Lock()
	l, ok := n.links[[2]core.HostID{from, to}]
	n.mu.Unlock()
	if !ok {
		return fmt.Errorf("netem: no link %v->%v", from, to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reserved -= bytesPerSec
	if l.reserved < 0 {
		l.reserved = 0
	}
	return nil
}

// reservableFraction is the share of link capacity available to
// guaranteed flows; the remainder is withheld for control traffic and
// scheduling headroom.
const reservableFraction = 0.9

// Available returns the unreserved guaranteed capacity of the directed
// link in bytes per second.
func (n *Network) Available(from, to core.HostID) (float64, error) {
	n.mu.Lock()
	l, ok := n.links[[2]core.HostID{from, to}]
	n.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("netem: no link %v->%v", from, to)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg.Bandwidth*reservableFraction - l.reserved, nil
}

// PathCapability computes what the route from src to dst can offer a flow
// of pktSize-byte packets: the bottleneck unreserved bandwidth, the summed
// propagation+transmission delay, summed jitter bounds, and combined loss
// and bit-error probabilities. It is the provider-side input to QoS
// negotiation (§4.1.1).
func (n *Network) PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	path, err := n.routeLocked(src, dst)
	if err != nil {
		return qos.Capability{}, err
	}
	return n.capabilityAlongLocked(src, dst, path, pktSize), nil
}

// PathCapabilityAvoiding is PathCapability over the route that visits none
// of the avoid hosts — the provider-side input to renegotiating a resumed
// VC around a failed hop.
func (n *Network) PathCapabilityAvoiding(src, dst core.HostID, pktSize int, avoid []core.HostID) (qos.Capability, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	path, err := n.routeAvoidingLocked(src, dst, avoid)
	if err != nil {
		return qos.Capability{}, err
	}
	return n.capabilityAlongLocked(src, dst, path, pktSize), nil
}

// capabilityAlongLocked folds one concrete path's link metrics into a
// capability; caller holds n.mu.
func (n *Network) capabilityAlongLocked(src, dst core.HostID, path []core.HostID, pktSize int) qos.Capability {
	bottleneck := -1.0
	var delay, jitter time.Duration
	survive := 1.0
	okBits := 1.0
	for i := 0; i+1 < len(path); i++ {
		l := n.links[[2]core.HostID{path[i], path[i+1]}]
		l.mu.Lock()
		avail := l.cfg.Bandwidth*reservableFraction - l.reserved
		txTime := time.Duration(float64(pktSize+headerOverhead) / l.cfg.Bandwidth * float64(time.Second))
		delay += l.cfg.Delay + txTime
		jitter += l.cfg.Jitter
		if b, isB := l.cfg.Loss.(Bernoulli); isB {
			survive *= 1 - b.P
		} else if g, isG := l.cfg.Loss.(*GilbertElliott); isG {
			// Steady-state loss probability of the two-state chain.
			denom := g.PGoodBad + g.PBadGood
			if denom > 0 {
				pBad := g.PGoodBad / denom
				survive *= 1 - (pBad*g.PLossBad + (1-pBad)*g.PLossGood)
			}
		}
		okBits *= pow1m(l.cfg.BitErrorRate, 1)
		if bottleneck < 0 || avail < bottleneck {
			bottleneck = avail
		}
		l.mu.Unlock()
	}
	if src == dst {
		return qos.Capability{MaxThroughput: 1e9}
	}
	perPkt := float64(pktSize + headerOverhead)
	return qos.Capability{
		MaxThroughput: bottleneck / perPkt,
		MinDelay:      delay,
		MinJitter:     jitter,
		MinPER:        1 - survive,
		MinBER:        1 - okBits,
	}
}

// MTU returns 0: the emulator carries payloads of any size in one
// packet, so transport entities keep their configured TPDU bound.
func (n *Network) MTU() int { return 0 }

// Hosts returns the registered host IDs in ascending order.
func (n *Network) Hosts() []core.HostID {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]core.HostID, 0, len(n.hosts))
	for id := range n.hosts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
