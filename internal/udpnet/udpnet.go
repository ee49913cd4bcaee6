// Package udpnet is the real-network substrate: it implements
// netif.Network over UDP sockets so transport entities in different OS
// processes (or machines) exchange the same PDUs they exchange over the
// netem emulator. A small wire header carries the substrate metadata the
// emulator passes in memory — source/destination host, owning VC and
// priority — plus a payload checksum, so damaged-packet detection and
// per-VC attribution survive the wire (netif.Packet.Damaged).
//
// Outbound traffic goes through DSCP-style strict-priority send queues
// (control > guaranteed > best-effort), optionally paced to a configured
// line rate so priority actually matters on an otherwise-unloaded
// loopback path. There is no in-network reservation on a real IP path;
// admission control is advisory and local (resv.Local), wired to
// PathCapability through SetAvailable so QoS negotiation and admission
// agree.
//
// The data path is engineered for multi-core kernel-offload throughput:
//
//   - Config.SendShards per-CPU send structures, each with its own
//     socket, strict-priority rings, buffer pool and sendmmsg loop, so
//     SendBatch enqueues contention-free (flows hash-pin to a shard,
//     preserving per-flow FIFO order).
//   - UDP_SEGMENT send-side GSO: one sendmsg carries up to a 64KB
//     super-datagram of same-destination, same-priority, same-size
//     packets as a gather list — the kernel (or the NIC) splits it into
//     individual datagrams, so the per-packet syscall and protocol-stack
//     cost amortises over the whole run. Per-packet CRC framing is
//     unchanged: every segment is a complete wire datagram.
//   - Config.RecvShards SO_REUSEPORT sockets on the advertised port:
//     the kernel hashes inbound flows across them, so recvmmsg receive
//     processing scales across CPUs. Each shard feeds its own delivery
//     goroutine; the transport's handler hands events to its own
//     per-shard MPSC rings, so no new locks appear on the path.
//   - UDP_GRO on receive: coalesced super-datagrams are split back into
//     individual packets at the GSO segment size, each CRC-checked and
//     Damaged-attributed exactly as a lone datagram would be.
//
// Wire buffers come from per-shard sync.Pools and are recycled once the
// receive handler returns; the priority queues are fixed ring buffers
// that never reallocate. In steady state the path allocates nothing per
// packet (see the alloc regression tests and BenchmarkSendRecv). Where
// the kernel lacks UDP_SEGMENT/UDP_GRO (or on non-Linux builds) the
// substrate transparently falls back to plain sendmmsg/recvmmsg or
// one-datagram-per-syscall I/O; conformance semantics are identical.
package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
)

// Wire header layout v2, big-endian, headerSize bytes total:
//
//	[0:4]   magic "CMT2"
//	[4:8]   src HostID
//	[8:12]  dst HostID
//	[12:16] flow VCID
//	[16]    priority
//	[17]    flags (reserved, 0)
//	[18:20] sender's advertised (listen) port
//	[20:22] payload length
//	[22:24] reserved (0)
//	[24:28] payload CRC-32 (IEEE)
//	[28:32] header CRC-32 over bytes [0:28]
//
// v2 adds the sender's advertised port: per-CPU send shards transmit
// from ephemeral-port sockets, so the datagram's source address no
// longer names the port peers should reply to. Peer learning records
// addr-from-the-wire + port-from-the-header, which keeps the peer table
// stable across send shards and lets SO_REUSEPORT hash replies across
// the remote's receive shards.
//
// A bad header CRC drops the datagram (we cannot trust any field); a bad
// payload CRC delivers it with Damaged set, preserving Flow attribution.
const (
	magic      = 0x434D5432 // "CMT2"
	headerSize = 32
)

// reservableFraction caps advisory admission at this share of the
// configured line rate, leaving headroom for control traffic — the same
// fraction netem's per-link reservation uses.
const reservableFraction = 0.9

// maxBatch bounds Config.Batch: it sizes the per-socket mmsghdr arrays
// and the sender's scratch, so it stays small and fixed.
const maxBatch = 64

// maxShards bounds SendShards and RecvShards; sockets and loops scale
// linearly with it.
const maxShards = 16

// maxSegments is the most packets one GSO super-datagram may carry —
// the kernel's UDP_MAX_SEGMENTS floor across supported versions.
const maxSegments = 64

// maxGSOBytes bounds one super-datagram's total wire bytes; the kernel
// caps a GSO skb at 64KB and an IPv4 UDP payload at 65507.
const maxGSOBytes = 64000

// groBufSize is the receive buffer size on a UDP_GRO socket: a
// coalesced super-datagram can be up to 64KB regardless of our MTU.
const groBufSize = 65535

// socketBuffer is the SO_SNDBUF/SO_RCVBUF request: the kernel default
// (~200 KB) holds under a hundred MTU-sized datagrams of skb overhead,
// far too shallow for a line-rate CM burst between two scheduler slices
// — and a single GRO super-datagram alone is 64KB.
const socketBuffer = 1 << 22

// Config parameterises New. Local and Listen are required.
type Config struct {
	// Local is the host ID this process plays.
	Local core.HostID
	// Listen is the UDP address to bind, e.g. "127.0.0.1:0".
	Listen string
	// Peers maps remote host IDs to their UDP addresses. Peers may also
	// be added later with AddPeer, and are learned automatically from
	// inbound traffic, so a pure responder can start with none.
	Peers map[core.HostID]string
	// Clock paces transmission; nil selects the system clock.
	Clock clock.Clock
	// MTU bounds one packet's payload in bytes. Default 8192.
	MTU int
	// LineRate is the assumed path capacity in bytes/sec, the basis for
	// PathCapability and admission. Default 12.5e6 (100 Mbit/s).
	LineRate float64
	// PaceRate, when positive, paces the sender to this many bytes/sec
	// so the strict-priority queues become observable; 0 sends as fast
	// as the socket accepts. Pacing forces a single send shard and a
	// drain quantum of one packet, so strict priority stays preemptive
	// at packet granularity.
	PaceRate float64
	// Delay is the advertised propagation-delay floor for
	// PathCapability. Default 0.
	Delay time.Duration
	// Jitter is the advertised jitter bound for PathCapability.
	// Default 1ms (scheduling noise on a real host).
	Jitter time.Duration
	// QueueLen bounds each priority queue (per send shard); excess
	// packets are dropped like a router's drop-tail queue. Default 256.
	QueueLen int
	// Batch bounds how many same-priority datagrams one
	// sendmmsg/recvmmsg syscall moves (on platforms with batch I/O;
	// elsewhere it only sizes the sender's drain quantum). Default 32,
	// capped at 64. A paced sender always drains one packet at a time
	// so strict priority stays preemptive at packet granularity.
	Batch int
	// SendShards is the number of per-CPU send structures: sockets,
	// priority rings, buffer pools and send loops. Flows hash-pin to a
	// shard, so per-flow FIFO order is preserved while distinct flows
	// enqueue contention-free. Default min(GOMAXPROCS, 8); forced to 1
	// when PaceRate is set.
	SendShards int
	// RecvShards is the number of SO_REUSEPORT sockets sharing the
	// advertised port; the kernel hashes inbound flows across them.
	// Default min(GOMAXPROCS, 8); forced to 1 where SO_REUSEPORT is
	// unavailable (non-Linux builds).
	RecvShards int
	// NoOffload disables UDP_SEGMENT/UDP_GRO even where the kernel
	// supports them — the plain sendmmsg/recvmmsg path of PR 5. Offload
	// support is probed at runtime, so on old kernels this is implied.
	NoOffload bool
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.System{}
	}
	if c.MTU <= 0 {
		c.MTU = 8192
	}
	if c.LineRate <= 0 {
		c.LineRate = 12.5e6
	}
	if c.Jitter <= 0 {
		c.Jitter = time.Millisecond
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 256
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.Batch > maxBatch {
		c.Batch = maxBatch
	}
	defShards := runtime.GOMAXPROCS(0)
	if defShards > 8 {
		defShards = 8
	}
	if c.SendShards <= 0 {
		c.SendShards = defShards
	}
	if c.RecvShards <= 0 {
		c.RecvShards = defShards
	}
	if c.SendShards > maxShards {
		c.SendShards = maxShards
	}
	if c.RecvShards > maxShards {
		c.RecvShards = maxShards
	}
	if c.PaceRate > 0 {
		// One paced drain point: strict priority and the pacing budget
		// are global properties, not per-shard ones.
		c.SendShards = 1
	}
	if c.RecvShards > platformMaxRecvShards {
		c.RecvShards = platformMaxRecvShards
	}
	return c
}

// outPkt is one queued outbound datagram. buf is a pooled wire buffer
// owned by the queue entry; ownership moves to the transmit path on
// dequeue and back to the pool once the datagram is on the wire (or
// to the delivery path for loopback destinations).
type outPkt struct {
	addr netip.AddrPort // zero (invalid) = local delivery
	buf  *[]byte        // pooled wire buffer
	n    int            // wire bytes in buf
	size int            // accounting size: payload + netif.WireOverhead
}

// inPkt is one received super-datagram (or lone datagram) queued for
// handler delivery: n wire bytes in buf, split into seg-byte segments
// (the last may be shorter). buf returns to its pool after every
// segment's handler has run.
type inPkt struct {
	buf  *[]byte
	n    int
	seg  int
	from netip.AddrPort // zero = local (loopback) delivery
}

// ring is a fixed-capacity FIFO of outbound datagrams. It never
// reallocates: enqueue beyond capacity fails (drop-tail), and dequeue
// clears the vacated slot so no packet buffer is retained by the
// backing array.
type ring struct {
	buf  []outPkt
	head int
	n    int
}

func newRing(capacity int) ring { return ring{buf: make([]outPkt, capacity)} }

func (r *ring) len() int { return r.n }

// push appends p; it reports false (and stores nothing) when full.
func (r *ring) push(p outPkt) bool {
	if r.n == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
	return true
}

// pop moves up to len(dst) packets into dst, oldest first, and returns
// how many it moved. Vacated slots are zeroed so the ring holds no
// reference to a dequeued packet's buffer.
func (r *ring) pop(dst []outPkt) int {
	k := 0
	for k < len(dst) && r.n > 0 {
		dst[k] = r.buf[r.head]
		r.buf[r.head] = outPkt{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
		k++
	}
	return k
}

// shard is one socket's worth of wire machinery. Send shards own
// priority rings and a send loop next to their receive pipeline; the
// SO_REUSEPORT receive shards run only the receive pipeline. Every
// field below the socket is touched by that shard's own goroutines (or
// under its own lock), so shards never contend with each other.
type shard struct {
	net  *Network
	idx  int
	conn *net.UDPConn
	rawc syscall.RawConn // set when batch I/O is available, else nil
	gso  bool            // UDP_SEGMENT accepted on this socket
	gro  bool            // UDP_GRO enabled on this socket

	// pool recycles send-side wire buffers (cap exactly net.bufSize);
	// rpool recycles receive buffers (cap exactly net.recvBufSize,
	// which is groBufSize on a UDP_GRO socket). When the two classes
	// collapse to the same size (no GRO anywhere) both point at one
	// pool, so capacity-routing in putWire cannot starve either side.
	// putWire routes each buffer back by capacity and drops any
	// stranger, so a buffer grown (or shrunk) out of class can never
	// ratchet pool memory upward.
	pool  *sync.Pool
	rpool *sync.Pool

	qmu    sync.Mutex
	qcond  *sync.Cond
	queues [netif.NumPriorities]ring

	inbox    chan inPkt
	sendDone chan struct{} // sendLoop has drained its queues and exited

	bio *batchIO // platform batch-I/O state (nil without batch support)

	// writeHook, when set (tests only), replaces the one-datagram
	// send syscall of the generic write path, so partial-batch error
	// accounting can be pinned with injected transient errors.
	writeHook func(wire []byte, addr netip.AddrPort) error
}

// getSendBuf takes a send wire buffer from the shard's pool.
func (s *shard) getSendBuf() *[]byte { return s.pool.Get().(*[]byte) }

// getRecvBuf takes a receive buffer from the shard's pool.
func (s *shard) getRecvBuf() *[]byte { return s.rpool.Get().(*[]byte) }

// putWire returns a wire buffer to the pool that owns its size class.
// A buffer whose capacity matches neither class — e.g. one a caller
// grew past bufSize — is dropped for the GC instead of being pooled,
// pinning steady-state pool memory at shards × poolsize × class size.
func (s *shard) putWire(b *[]byte) {
	if b == nil {
		return
	}
	switch cap(*b) {
	case s.net.recvBufSize:
		*b = (*b)[:s.net.recvBufSize]
		s.rpool.Put(b)
	case s.net.bufSize: // unreachable when the classes are aliased
		*b = (*b)[:s.net.bufSize]
		s.pool.Put(b)
	}
}

// Network is a UDP-socket substrate. Create with New; it is live
// immediately (no Start).
type Network struct {
	cfg Config
	clk clock.Clock
	v4  bool // sockets are AF_INET (affects sockaddr encoding)

	bufSize     int    // send wire buffer size: headerSize + MTU
	recvBufSize int    // receive buffer size: groBufSize under GRO
	listenPort  uint16 // advertised port, carried in every wire header

	recv []*shard // SO_REUSEPORT shards on the advertised port
	send []*shard // per-CPU send shards on ephemeral ports

	// peers is the lock-free read path for the send-side peer lookup: a
	// copy-on-write map swapped under mu by AddPeer/learnPeer.
	peers  atomic.Pointer[map[core.HostID]netip.AddrPort]
	closed atomic.Bool

	handler atomic.Pointer[netif.Handler]

	mu      sync.Mutex // guards writes to peers, plus avail/damage/rng
	avail   func(src, dst core.HostID) float64
	damageP atomic.Uint64 // math.Float64bits of the damage probability
	rng     *rand.Rand

	wg  sync.WaitGroup // send + receive loops
	dwg sync.WaitGroup // delivery loops

	si atomic.Pointer[instr]
}

// stats returns the live instrument set; before SetStats it is the
// all-nil set, whose instruments are no-ops.
func (n *Network) stats() *instr {
	if p := n.si.Load(); p != nil {
		return p
	}
	return &noInstr
}

var noInstr instr

// instr is the substrate's metrics; all instruments are nil-safe.
type instr struct {
	sentPkts, sentBytes   *stats.Counter
	sentBatches           *stats.Counter
	sendErrors            *stats.Counter
	gsoSupers             *stats.Counter
	recvPkts, recvBytes   *stats.Counter
	recvBatches           *stats.Counter
	groSupers             *stats.Counter
	damaged, hdrErrors    *stats.Counter
	sendOverflows         *stats.Counter
	recvOverruns, misaddr *stats.Counter
}

var (
	_ netif.Network     = (*Network)(nil)
	_ netif.BatchSender = (*Network)(nil)
)

// listenFirst binds the first receive shard. A port-0 request with
// reuseport cannot be left to the kernel: Linux may autobind it to a port
// another reuseport group already holds, and the two hosts would split
// each other's datagrams. Instead a plain socket, which is never given a
// port in use, picks the port and is closed, and the reuseport socket
// binds that number. This narrows the race but does not close it: the
// retry on EADDRINUSE only catches a non-reuseport socket that took the
// port in between; a reuseport socket of the same user binds it too.
func listenFirst(listen string, reuseport bool) (*net.UDPConn, error) {
	host, port, err := net.SplitHostPort(listen)
	if err != nil || !reuseport || port != "0" {
		return listenShared(listen, reuseport)
	}
	for try := 0; ; try++ {
		probe, err := listenShared(listen, false)
		if err != nil {
			return nil, err
		}
		picked := probe.LocalAddr().(*net.UDPAddr).Port
		probe.Close()
		conn, err := listenShared(net.JoinHostPort(host, strconv.Itoa(picked)), true)
		if err == nil || try == 7 || !errors.Is(err, syscall.EADDRINUSE) {
			return conn, err
		}
	}
}

// New binds the sockets and starts the substrate's per-shard sender,
// receiver and delivery goroutines.
func New(cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Local == 0 {
		return nil, errors.New("udpnet: Local host ID required")
	}
	n := &Network{
		cfg: cfg,
		clk: cfg.Clock,
		rng: rand.New(rand.NewSource(1)),
	}
	peers := make(map[core.HostID]netip.AddrPort)
	n.peers.Store(&peers)
	n.bufSize = headerSize + cfg.MTU

	// The first receive shard binds the advertised address (with
	// SO_REUSEPORT where supported, so siblings can join); the rest
	// join its concrete port. Send shards bind ephemeral ports on the
	// same interface: their traffic carries the advertised port in the
	// wire header, so peers still reply to the reuseport group.
	first, err := listenFirst(cfg.Listen, cfg.RecvShards > 1)
	if err != nil {
		return nil, fmt.Errorf("udpnet: %w", err)
	}
	local := first.LocalAddr().(*net.UDPAddr).AddrPort()
	n.v4 = local.Addr().Unmap().Is4()
	n.listenPort = local.Port()
	closeAll := func(ss []*shard) {
		for _, s := range ss {
			s.conn.Close()
		}
	}
	mk := func(conn *net.UDPConn, idx int, sender bool) *shard {
		s := &shard{net: n, idx: idx, conn: conn, inbox: make(chan inPkt, 1024)}
		_ = conn.SetReadBuffer(socketBuffer)
		_ = conn.SetWriteBuffer(socketBuffer)
		s.qcond = sync.NewCond(&s.qmu)
		if sender {
			s.sendDone = make(chan struct{})
			for pr := range s.queues {
				s.queues[pr] = newRing(cfg.QueueLen)
			}
		}
		s.initBatchIO()
		if !cfg.NoOffload && s.bio != nil {
			s.gso, s.gro = s.probeOffload()
		}
		rbs := n.bufSize
		if s.gro {
			rbs = groBufSize
		}
		if rbs > n.recvBufSize {
			n.recvBufSize = rbs
		}
		return s
	}
	n.recv = append(n.recv, mk(first, 0, false))
	for i := 1; i < cfg.RecvShards; i++ {
		conn, err := listenShared(local.String(), true)
		if err != nil {
			closeAll(n.recv)
			return nil, fmt.Errorf("udpnet: reuseport shard %d: %w", i, err)
		}
		n.recv = append(n.recv, mk(conn, i, false))
	}
	sendListen := netip.AddrPortFrom(local.Addr(), 0).String()
	for i := 0; i < cfg.SendShards; i++ {
		conn, err := listenShared(sendListen, false)
		if err != nil {
			closeAll(n.recv)
			closeAll(n.send)
			return nil, fmt.Errorf("udpnet: send shard %d: %w", i, err)
		}
		n.send = append(n.send, mk(conn, i, true))
	}
	for id, addr := range cfg.Peers {
		if err := n.AddPeer(id, addr); err != nil {
			closeAll(n.recv)
			closeAll(n.send)
			return nil, err
		}
	}
	// Pool wiring happens after every shard has probed its offloads:
	// recvBufSize is only final then, and when no socket got GRO the
	// receive class collapses into the send class — the two pools must
	// alias, or capacity-routed recycling would starve one of them.
	for _, s := range append(append([]*shard(nil), n.recv...), n.send...) {
		s.pool = &sync.Pool{New: func() any {
			b := make([]byte, n.bufSize)
			return &b
		}}
		if n.recvBufSize == n.bufSize {
			s.rpool = s.pool
		} else {
			s.rpool = &sync.Pool{New: func() any {
				b := make([]byte, n.recvBufSize)
				return &b
			}}
		}
	}
	for _, s := range append(append([]*shard(nil), n.recv...), n.send...) {
		n.dwg.Add(1)
		go s.deliverLoop()
		n.wg.Add(1)
		go s.recvLoop()
		if s.sendDone != nil {
			n.wg.Add(1)
			go s.sendLoop()
		}
	}
	return n, nil
}

// Addr returns the advertised bound address (useful with ":0" listens).
func (n *Network) Addr() *net.UDPAddr { return n.recv[0].conn.LocalAddr().(*net.UDPAddr) }

// OffloadActive reports whether send-side GSO and receive-side GRO are
// live on this substrate's sockets — false on old kernels, non-Linux
// builds, or with Config.NoOffload.
func (n *Network) OffloadActive() (gso, gro bool) {
	return n.send[0].gso, n.recv[0].gro
}

// setPeerLocked installs id -> ap if it changed; callers hold n.mu.
func (n *Network) setPeerLocked(id core.HostID, ap netip.AddrPort) {
	cur := *n.peers.Load()
	if have, ok := cur[id]; ok && have == ap {
		return
	}
	next := make(map[core.HostID]netip.AddrPort, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[id] = ap
	n.peers.Store(&next)
}

// AddPeer maps a remote host ID to its UDP address.
func (n *Network) AddPeer(id core.HostID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet: peer %v: %w", id, err)
	}
	ap := ua.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if n.v4 && !ap.Addr().Is4() {
		return fmt.Errorf("udpnet: peer %v: %v is not reachable from an IPv4 socket", id, ap)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.setPeerLocked(id, ap)
	return nil
}

// SetStats points the substrate's metrics at a scope (net/...).
func (n *Network) SetStats(sc stats.Scope) {
	s := sc.Scope("net")
	n.si.Store(&instr{
		sentPkts:      s.Counter("sent_packets"),
		sentBytes:     s.Counter("sent_bytes"),
		sentBatches:   s.Counter("sent_batches"),
		sendErrors:    s.Counter("send_errors"),
		gsoSupers:     s.Counter("gso_supers"),
		recvPkts:      s.Counter("recv_packets"),
		recvBytes:     s.Counter("recv_bytes"),
		recvBatches:   s.Counter("recv_batches"),
		groSupers:     s.Counter("gro_supers"),
		damaged:       s.Counter("damaged_packets"),
		hdrErrors:     s.Counter("header_errors"),
		sendOverflows: s.Counter("send_overflows"),
		recvOverruns:  s.Counter("recv_overruns"),
		misaddr:       s.Counter("misaddressed"),
	})
}

// SetAvailable installs the advisory-admission hook: PathCapability
// quotes fn(src, dst) as the available bandwidth instead of the raw line
// rate. Wire it to resv.Local.Available so a rate granted by QoS
// negotiation is always admissible.
func (n *Network) SetAvailable(fn func(src, dst core.HostID) float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.avail = fn
}

// SetDamage makes the sender corrupt each outbound payload with
// probability p after checksumming — a test hook standing in for wire
// bit errors, which loopback paths never produce naturally. Empty
// payloads carry no bits to flip and pass through untouched.
func (n *Network) SetDamage(p float64) {
	n.damageP.Store(floatBits(p))
}

// Capacity returns the admissible share of the configured line rate —
// the budget a resv.Local for this substrate should be built with.
func (n *Network) Capacity() float64 { return n.cfg.LineRate * reservableFraction }

// SetHandler installs the receive handler for the local host.
func (n *Network) SetHandler(id core.HostID, h netif.Handler) error {
	if id != n.cfg.Local {
		return fmt.Errorf("udpnet: host %v is not local (%v)", id, n.cfg.Local)
	}
	n.handler.Store(&h)
	return nil
}

// Route reports the path to dst: one real-network hop, [src, dst].
func (n *Network) Route(src, dst core.HostID) ([]core.HostID, error) {
	if src != n.cfg.Local {
		return nil, fmt.Errorf("udpnet: source %v is not local (%v)", src, n.cfg.Local)
	}
	if dst == n.cfg.Local {
		return []core.HostID{src, dst}, nil
	}
	if _, ok := (*n.peers.Load())[dst]; !ok {
		return nil, fmt.Errorf("udpnet: unknown peer %v", dst)
	}
	return []core.HostID{src, dst}, nil
}

// PathCapability reports what the path can offer a flow of pktSize-byte
// packets given the line rate and the bandwidth already admitted.
func (n *Network) PathCapability(src, dst core.HostID, pktSize int) (qos.Capability, error) {
	if _, err := n.Route(src, dst); err != nil {
		return qos.Capability{}, err
	}
	n.mu.Lock()
	avail := n.avail
	n.mu.Unlock()
	free := n.Capacity()
	if avail != nil {
		free = avail(src, dst)
	}
	perPkt := float64(pktSize + netif.WireOverhead)
	txTime := time.Duration(perPkt / n.cfg.LineRate * float64(time.Second))
	return qos.Capability{
		MaxThroughput: free / perPkt,
		MinDelay:      n.cfg.Delay + txTime,
		MinJitter:     n.cfg.Jitter,
		MinPER:        0,
		MinBER:        0,
	}, nil
}

// MTU returns the payload bound per packet.
func (n *Network) MTU() int { return n.cfg.MTU }

// sendShard pins a flow to one per-CPU send structure. Flows keep FIFO
// order within their shard; distinct flows spread across shards (and,
// because each shard sends from its own source port, across the
// receiver's SO_REUSEPORT shards too).
func (n *Network) sendShard(flow core.VCID, dst core.HostID) *shard {
	if len(n.send) == 1 {
		return n.send[0]
	}
	h := uint32(flow)*0x9E3779B1 ^ uint32(dst)*0x85EBCA77
	return n.send[h%uint32(len(n.send))]
}

// Send enqueues one packet at its priority. Delivery is asynchronous and
// unreliable, like the network underneath. The payload is copied into a wire buffer before
// Send returns, so the caller may reuse it immediately.
func (n *Network) Send(p netif.Packet) error {
	s := n.sendShard(p.Flow, p.Dst)
	out, err := n.prepare(s, p)
	if err != nil {
		return err
	}
	s.enqueue(p.Prio, out)
	s.qcond.Signal()
	return nil
}

// SendBatch enqueues many packets with one marshal pass and one queue
// lock acquisition per shard per chunk — the netif.BatchSender fast
// path. Packets that fail validation are skipped; the first such error is returned after
// the rest of the batch has been enqueued.
func (n *Network) SendBatch(ps []netif.Packet) error {
	var firstErr error
	var outs [maxBatch]outPkt
	var prios [maxBatch]netif.Priority
	var sidx [maxBatch]uint8
	for len(ps) > 0 {
		chunk := ps
		if len(chunk) > maxBatch {
			chunk = chunk[:maxBatch]
		}
		ps = ps[len(chunk):]
		k := 0
		for _, p := range chunk {
			s := n.sendShard(p.Flow, p.Dst)
			out, err := n.prepare(s, p)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			outs[k], prios[k], sidx[k] = out, p.Prio, uint8(s.idx)
			k++
		}
		if k == 0 {
			continue
		}
		for si := range n.send {
			s := n.send[si]
			pushed := false
			for i := 0; i < k; i++ {
				if int(sidx[i]) != si {
					continue
				}
				if !pushed {
					s.qmu.Lock()
					pushed = true
				}
				if !s.queues[prios[i]].push(outs[i]) {
					s.putWire(outs[i].buf)
					n.stats().sendOverflows.Inc()
				}
			}
			if pushed {
				s.qmu.Unlock()
				s.qcond.Signal()
			}
		}
	}
	return firstErr
}

// prepare validates p, resolves its destination and marshals it into a
// wire buffer from s's pool, returning the queue entry. The fast path
// takes no locks: the peer table is a copy-on-write snapshot.
func (n *Network) prepare(s *shard, p netif.Packet) (outPkt, error) {
	if len(p.Payload) > n.cfg.MTU {
		return outPkt{}, fmt.Errorf("udpnet: payload %d exceeds MTU %d", len(p.Payload), n.cfg.MTU)
	}
	if p.Prio >= netif.NumPriorities {
		return outPkt{}, fmt.Errorf("udpnet: invalid priority %d", p.Prio)
	}
	if n.closed.Load() {
		return outPkt{}, errors.New("udpnet: network closed")
	}
	var addr netip.AddrPort // zero = deliver locally
	if p.Dst != n.cfg.Local {
		var ok bool
		addr, ok = (*n.peers.Load())[p.Dst]
		if !ok {
			return outPkt{}, fmt.Errorf("udpnet: unknown peer %v", p.Dst)
		}
	}
	damage := false
	if dp := floatFromBits(n.damageP.Load()); dp > 0 {
		n.mu.Lock()
		damage = n.rng.Float64() < dp
		n.mu.Unlock()
	}
	buf := s.getSendBuf()
	wire := (*buf)[:headerSize+len(p.Payload)]
	marshalInto(wire, p, n.listenPort)
	if damage && len(p.Payload) > 0 {
		wire[headerSize] ^= 0x40 // flip one payload bit after checksumming
	}
	return outPkt{addr: addr, buf: buf, n: len(wire), size: len(p.Payload) + netif.WireOverhead}, nil
}

// enqueue pushes one prepared packet, dropping tail-first when the
// priority's ring is full, like a congested router.
func (s *shard) enqueue(prio netif.Priority, out outPkt) {
	s.qmu.Lock()
	ok := s.queues[prio].push(out)
	s.qmu.Unlock()
	if !ok {
		s.putWire(out.buf)
		s.net.stats().sendOverflows.Inc()
	}
}

// marshalInto builds the wire datagram for p in dst, which must be
// exactly headerSize+len(p.Payload) long. srcPort is the sender's
// advertised port, which peer learning trusts over the datagram's
// observed source (per-CPU send shards transmit from ephemeral ports).
func marshalInto(dst []byte, p netif.Packet, srcPort uint16) {
	binary.BigEndian.PutUint32(dst[0:], magic)
	binary.BigEndian.PutUint32(dst[4:], uint32(p.Src))
	binary.BigEndian.PutUint32(dst[8:], uint32(p.Dst))
	binary.BigEndian.PutUint32(dst[12:], uint32(p.Flow))
	dst[16] = byte(p.Prio)
	dst[17] = 0
	binary.BigEndian.PutUint16(dst[18:], srcPort)
	binary.BigEndian.PutUint16(dst[20:], uint16(len(p.Payload)))
	binary.BigEndian.PutUint16(dst[22:], 0)
	copy(dst[headerSize:], p.Payload)
	binary.BigEndian.PutUint32(dst[24:], crc32.ChecksumIEEE(p.Payload))
	binary.BigEndian.PutUint32(dst[28:], crc32.ChecksumIEEE(dst[:28]))
}

// marshal builds the wire datagram for p in a fresh buffer (tests and
// one-off callers; the data path marshals into pooled buffers).
func marshal(p netif.Packet) []byte {
	data := make([]byte, headerSize+len(p.Payload))
	marshalInto(data, p, 0)
	return data
}

// unmarshal parses a wire datagram. ok=false means the header cannot be
// trusted and the datagram must be dropped. srcPort is the sender's
// advertised port from the header. The returned packet's Payload
// aliases data — it is valid only as long as data is.
func unmarshal(data []byte) (p netif.Packet, srcPort uint16, ok bool) {
	if len(data) < headerSize {
		return p, 0, false
	}
	if binary.BigEndian.Uint32(data[0:]) != magic {
		return p, 0, false
	}
	if binary.BigEndian.Uint32(data[28:]) != crc32.ChecksumIEEE(data[:28]) {
		return p, 0, false
	}
	plen := int(binary.BigEndian.Uint16(data[20:]))
	if plen != len(data)-headerSize {
		return p, 0, false
	}
	p.Src = core.HostID(binary.BigEndian.Uint32(data[4:]))
	p.Dst = core.HostID(binary.BigEndian.Uint32(data[8:]))
	p.Flow = core.VCID(binary.BigEndian.Uint32(data[12:]))
	p.Prio = netif.Priority(data[16])
	srcPort = binary.BigEndian.Uint16(data[18:])
	p.Payload = data[headerSize:]
	p.Damaged = binary.BigEndian.Uint32(data[24:]) != crc32.ChecksumIEEE(p.Payload)
	return p, srcPort, true
}

// sendLoop drains the shard's priority queues strictly highest-first in
// batches of up to Config.Batch packets, pacing each batch to PaceRate
// when configured. A paced sender drains single packets so a control
// packet can still preempt a queued best-effort burst.
func (s *shard) sendLoop() {
	n := s.net
	defer n.wg.Done()
	defer close(s.sendDone)
	batch := make([]outPkt, n.cfg.Batch)
	limit := len(batch)
	if n.cfg.PaceRate > 0 {
		limit = 1
	}
	for {
		s.qmu.Lock()
		k := 0
		for k == 0 {
			for pr := range s.queues {
				if s.queues[pr].len() > 0 {
					k = s.queues[pr].pop(batch[:limit])
					break
				}
			}
			if k > 0 {
				break
			}
			if n.closed.Load() {
				s.qmu.Unlock()
				return
			}
			s.qcond.Wait()
		}
		s.qmu.Unlock()
		if n.cfg.PaceRate > 0 {
			total := 0
			for _, out := range batch[:k] {
				total += out.size
			}
			n.clk.Sleep(time.Duration(float64(total) / n.cfg.PaceRate * float64(time.Second)))
		}
		s.transmit(batch[:k])
	}
}

// transmit moves one dequeued batch to the wire (or the local delivery
// path), recycling wire buffers as each datagram leaves.
func (s *shard) transmit(batch []outPkt) {
	n := s.net
	i := 0
	for i < len(batch) {
		if !batch[i].addr.IsValid() {
			// Local destination: hand the wire bytes straight to the
			// receive path so loopback traffic shares its code. The
			// buffer's ownership moves to the delivery pipeline.
			s.ingest(batch[i].buf, batch[i].n, 0, netip.AddrPort{})
			i++
			continue
		}
		j := i
		for j < len(batch) && batch[j].addr.IsValid() {
			j++
		}
		sent, bytes, calls, errs := s.writeBatch(batch[i:j])
		si := n.stats()
		si.sentPkts.Add(uint64(sent))
		si.sentBytes.Add(uint64(bytes))
		si.sentBatches.Add(uint64(calls))
		si.sendErrors.Add(uint64(errs))
		for ; i < j; i++ {
			s.putWire(batch[i].buf)
		}
	}
}

// recvLoop reads datagrams off the shard's socket until Close, batching
// and GRO-splitting where the platform supports it.
func (s *shard) recvLoop() {
	defer s.net.wg.Done()
	s.runRecvLoop()
}

// genericWriteBatch transmits one datagram per syscall — the portable
// path, also the fallback when batch I/O is unavailable. Accounting is
// exact: every packet lands in either sent/bytes or errs, and calls
// counts only syscalls that put a datagram on the wire.
func (s *shard) genericWriteBatch(pkts []outPkt) (sent, bytes, calls, errs int) {
	for i := range pkts {
		wire := (*pkts[i].buf)[:pkts[i].n]
		var err error
		if s.writeHook != nil {
			err = s.writeHook(wire, pkts[i].addr)
		} else {
			_, err = s.conn.WriteToUDPAddrPort(wire, pkts[i].addr)
		}
		if err != nil {
			errs++
			continue
		}
		sent++
		bytes += len(wire)
		calls++
	}
	return sent, bytes, calls, errs
}

// genericRecvLoop reads one datagram per syscall into a pooled buffer
// and hands it to the delivery pipeline.
func (s *shard) genericRecvLoop() {
	for {
		buf := s.getRecvBuf()
		nr, from, err := s.conn.ReadFromUDPAddrPort(*buf)
		if err != nil {
			s.putWire(buf)
			return // socket closed
		}
		s.net.stats().recvBatches.Inc()
		s.ingest(buf, nr, 0, netip.AddrPortFrom(from.Addr().Unmap(), from.Port()))
	}
}

// learnPeer records (or refreshes) a peer's advertised address when a
// CRC-validated header arrives, so a responder needs no static peer
// table and a peer that crash-restarts on a new port becomes reachable
// again as soon as it speaks. The address pairs the datagram's source
// IP with the header's advertised port: per-CPU send shards transmit
// from ephemeral ports, and replies must target the peer's SO_REUSEPORT
// receive group, not whichever shard socket spoke last.
func (n *Network) learnPeer(src core.HostID, from netip.AddrPort, advertised uint16) {
	if src == 0 || src == n.cfg.Local {
		return
	}
	ap := from
	if advertised != 0 {
		ap = netip.AddrPortFrom(from.Addr(), advertised)
	}
	if have, ok := (*n.peers.Load())[src]; ok && have == ap {
		return // lock-free fast path: nothing changed
	}
	n.mu.Lock()
	n.setPeerLocked(src, ap)
	n.mu.Unlock()
}

// ingest queues one wire datagram (or GRO super-datagram) sitting in a
// pooled buffer for delivery, taking ownership of the buffer. seg is
// the GRO segment size (0 or >= nr means a single datagram); from is
// the sending socket address for peer learning, zero for local
// (loopback) delivery. Validation happens per segment on the delivery
// goroutine, so a damaged or misaddressed segment never censors its
// neighbours in the same super-datagram.
func (s *shard) ingest(buf *[]byte, nr, seg int, from netip.AddrPort) {
	if seg <= 0 || seg > nr {
		seg = nr
	}
	select {
	case s.inbox <- inPkt{buf: buf, n: nr, seg: seg, from: from}:
	default:
		// Receiver overrun; drop like a full NIC ring. Every segment of
		// the super-datagram is lost, so count them all.
		if seg > 0 {
			s.net.stats().recvOverruns.Add(uint64((nr + seg - 1) / seg))
		}
		s.putWire(buf)
	}
}

// deliverLoop splits each queued buffer into wire segments, validates
// every segment independently (header CRC, addressing, payload CRC) and
// runs the handler for each delivered packet, recycling the buffer once
// the last segment's handler returns — handlers must copy any payload
// bytes they keep (netif.Handler's contract).
func (s *shard) deliverLoop() {
	n := s.net
	defer n.dwg.Done()
	for ip := range s.inbox {
		si := n.stats()
		var h netif.Handler
		if hp := n.handler.Load(); hp != nil {
			h = *hp
		}
		learned := false
		for off := 0; off < ip.n; off += ip.seg {
			end := off + ip.seg
			if end > ip.n {
				end = ip.n
			}
			p, srcPort, ok := unmarshal((*ip.buf)[off:end])
			if !ok {
				si.hdrErrors.Inc()
				continue
			}
			si.recvPkts.Inc()
			si.recvBytes.Add(uint64(end - off))
			if !learned && ip.from.IsValid() {
				n.learnPeer(p.Src, ip.from, srcPort)
				learned = true
			}
			if p.Dst != n.cfg.Local {
				si.misaddr.Inc()
				continue
			}
			if p.Damaged {
				si.damaged.Inc()
			}
			if h != nil {
				h(p)
			}
		}
		s.putWire(ip.buf)
	}
}

// floatBits and floatFromBits pack the damage probability into the
// atomic word that carries it to the lock-free prepare path.
func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// Close shuts the substrate down. Shutdown order transfers the single-
// socket drain-before-close guarantee to the sharded layout: every send
// loop drains its queues and exits before any socket closes, so no
// write ever lands on a closed descriptor; then the sockets close,
// unblocking the receive loops; then the delivery pipelines drain. No
// handler runs after Close returns.
func (n *Network) Close() {
	if n.closed.Swap(true) {
		return
	}
	for _, s := range n.send {
		// Under qmu: a send loop that has read closed == false is either
		// still holding the lock, and will see the wake-up once it waits,
		// or already waiting. A bare Broadcast between its check and its
		// Wait was lost, and Close then waited on sendDone for ever.
		s.qmu.Lock()
		s.qcond.Broadcast()
		s.qmu.Unlock()
	}
	for _, s := range n.send {
		<-s.sendDone // already-queued packets (e.g. a final DiscReq) go out first
	}
	for _, s := range n.send {
		s.conn.Close() // unblocks the shard's recvLoop
	}
	for _, s := range n.recv {
		s.conn.Close()
	}
	n.wg.Wait()
	for _, s := range n.send {
		close(s.inbox)
	}
	for _, s := range n.recv {
		close(s.inbox)
	}
	n.dwg.Wait()
}
