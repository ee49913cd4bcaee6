package transport

import (
	"cmtos/internal/backoff"
	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
	"cmtos/internal/stats"
	"fmt"
	"sync"
	"time"
)

// maxTPDUOverhead bounds the marshalled framing around one TPDU's user
// payload (Data header fields plus the CRC trailer); NewEntity uses it to
// clamp MaxTPDU so one TPDU always fits one substrate packet.
const maxTPDUOverhead = 64

// Entity is the transport protocol entity of one host. It owns that
// host's TSAPs, the send and receive sides of its VCs, and the host's
// attachment to the network substrate. All methods are safe for
// concurrent use.
type Entity struct {
	host  core.HostID
	clk   clock.Clock
	net   netif.Network
	rm    resv.Reserver
	cfg   Config
	scope stats.Scope // host/<id>; disabled when Config.Stats is nil

	work     chan func()   // bounded dispatch queue for blocking handlers
	workDone chan struct{} // closed on Close; stops the workers

	mu         sync.Mutex
	users      map[core.TSAP]UserCallbacks
	sends      map[core.VCID]*SendVC
	recvs      map[core.VCID]*RecvVC
	nextVC     uint32
	nextTok    uint32
	pending    map[uint32]chan *pdu.Control
	served     map[servedKey]*servedEntry // remote-connect replay cache
	servedQ    []servedKey                // insertion order, for eviction
	orchFn     func(from core.HostID, o *pdu.Orch)
	dgramFn    map[core.TSAP]func(from core.HostID, d *pdu.Datagram)
	traceFn    func(at string, p core.Primitive)
	peerDownFn func(peer core.HostID, vcs []core.VCID)
	vcDownFn   func(s *SendVC, reason core.Reason)
	// Predictive-guard escalation hooks (see guard.go): shedFn asks the
	// orchestration layer to shift the VC's source-side drop budget,
	// rerouteFn asks the session supervisor to migrate the VC onto a
	// path avoiding its current intermediate hops. Either may be nil —
	// the guard escalates past an unavailable lever.
	guardShedFn    func(vc core.VCID, prob float64, horizon int) bool
	guardRerouteFn func(vc core.VCID) bool
	resumable      map[core.VCID]*RecvVC // torn-down sinks awaiting a possible resume
	resumableQ     []resumableKey        // insertion order, for eviction
	closed         bool

	// peerVCs indexes live VCs by remote peer (under mu), maintained at
	// VC registration and teardown, so the keepalive tick walks O(peers)
	// instead of building a map of every VC each interval.
	peerVCs map[core.HostID]map[core.VCID]struct{}

	// shards are the entity's event loops; every VC's protocol work runs
	// on the shard hashed from its VCID (see shard.go).
	shards []*shard

	// lastHeard maps core.HostID to a *atomic.Int64 UnixNano of the most
	// recent packet from that peer. The per-packet update is a lock-free
	// atomic store; map mutation only happens the first time a peer is
	// heard. misses is owned exclusively by the shard-0 keepalive tick.
	lastHeard sync.Map
	misses    map[core.HostID]int
}

// NewEntity attaches a transport entity to host on net. The host must
// already exist in the network; the entity installs itself as the host's
// packet handler. rm is the substrate's admission reserver (resv.Manager
// on netem, resv.Local on udpnet). clk is this host's clock (possibly
// skewed relative to other hosts).
func NewEntity(host core.HostID, clk clock.Clock, net netif.Network, rm resv.Reserver, cfg Config) (*Entity, error) {
	e := &Entity{
		host:      host,
		clk:       clk,
		net:       net,
		rm:        rm,
		cfg:       cfg.withDefaults(),
		scope:     cfg.Stats.Scope(fmt.Sprintf("host/%d", uint32(host))),
		users:     make(map[core.TSAP]UserCallbacks),
		sends:     make(map[core.VCID]*SendVC),
		recvs:     make(map[core.VCID]*RecvVC),
		pending:   make(map[uint32]chan *pdu.Control),
		served:    make(map[servedKey]*servedEntry),
		resumable: make(map[core.VCID]*RecvVC),
		peerVCs:   make(map[core.HostID]map[core.VCID]struct{}),
		misses:    make(map[core.HostID]int),
		workDone:  make(chan struct{}),
	}
	// One TPDU must fit one substrate packet: shrink the TPDU bound to
	// the substrate's MTU minus framing when the substrate has one.
	if mtu := net.MTU(); mtu > 0 {
		if budget := mtu - maxTPDUOverhead; budget < e.cfg.MaxTPDU {
			if budget < 1 {
				return nil, fmt.Errorf("transport: substrate MTU %d too small", mtu)
			}
			e.cfg.MaxTPDU = budget
		}
	}
	e.work = make(chan func(), e.cfg.DispatchQueue)
	for i := 0; i < e.cfg.DispatchWorkers; i++ {
		go e.dispatchWorker()
	}
	e.shards = make([]*shard, e.cfg.Shards)
	for i := range e.shards {
		e.shards[i] = newShard(e, i)
	}
	if err := net.SetHandler(host, e.onPacket); err != nil {
		close(e.workDone)
		return nil, err
	}
	// The event loops start after the handler is installed: anything the
	// substrate delivers in between just queues on the shard rings. The
	// keepalive tick rides shard 0's wheel, so the goroutine budget is
	// O(shards + dispatch workers) regardless of VC count.
	for _, sh := range e.shards {
		go sh.loop()
	}
	return e, nil
}

// dispatchWorker drains the bounded work queue. Handlers that can block
// (connect/reneg/disconnect negotiation, orch and datagram callbacks)
// run here instead of on per-PDU goroutines, so a control-PDU flood is
// bounded by queue depth rather than by scheduler capacity.
func (e *Entity) dispatchWorker() {
	for {
		select {
		case fn := <-e.work:
			fn()
		case <-e.workDone:
			return
		}
	}
}

// dispatch queues fn for a worker. When the queue is full the PDU's work
// is dropped — safe because confirmed control exchanges retransmit and
// reports/datagrams are periodic or best-effort by contract.
func (e *Entity) dispatch(fn func()) {
	select {
	case e.work <- fn:
	default:
		e.scope.Counter("dispatch_dropped").Inc()
	}
}

// Host returns the entity's host ID.
func (e *Entity) Host() core.HostID { return e.host }

// Clock returns the entity's clock.
func (e *Entity) Clock() clock.Clock { return e.clk }

// Config returns the entity's effective configuration.
func (e *Entity) Config() Config { return e.cfg }

// StatsScope returns the entity's metrics scope (host/<id>); the scope
// is disabled when no registry was configured.
func (e *Entity) StatsScope() stats.Scope { return e.scope }

// vcScopeName names a VC's metrics subtree under its entity's scope.
func vcScopeName(id core.VCID) string {
	return fmt.Sprintf("vc/%d", uint32(id))
}

// Attach binds user callbacks to a TSAP. A TSAP may be attached once;
// reattach after Detach.
func (e *Entity) Attach(t core.TSAP, u UserCallbacks) error {
	if t == 0 {
		return fmt.Errorf("transport: TSAP 0 is reserved")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.users[t]; dup {
		return fmt.Errorf("transport: %v already attached", t)
	}
	e.users[t] = u
	return nil
}

// Detach removes a TSAP's callbacks.
func (e *Entity) Detach(t core.TSAP) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.users, t)
}

// user returns the callbacks attached to t.
func (e *Entity) user(t core.TSAP) (UserCallbacks, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	u, ok := e.users[t]
	return u, ok
}

// SetOrchHandler installs the receiver for orchestration PDUs addressed
// to this host (used by the LLO).
func (e *Entity) SetOrchHandler(fn func(from core.HostID, o *pdu.Orch)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.orchFn = fn
}

// SendOrch transmits an orchestration PDU to the LLO at dst over the
// control-priority channel (§5's out-of-band connection with guaranteed
// bandwidth).
func (e *Entity) SendOrch(dst core.HostID, o *pdu.Orch) error {
	return e.net.Send(netif.Packet{
		Src: e.host, Dst: dst, Prio: netif.PrioControl,
		Payload: o.Marshal(nil),
	})
}

// SetGuardShedder installs the predictive guard's load-shed hook
// (used by the LLO: it forwards the forecast to the session's agent,
// which shifts drop budget toward this stream for a few intervals).
func (e *Entity) SetGuardShedder(fn func(vc core.VCID, prob float64, horizon int) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.guardShedFn = fn
}

// SetGuardRerouter installs the predictive guard's re-route hook (used
// by the session supervisor: it suspends the VC and re-establishes it
// on a path avoiding the current intermediate hops).
func (e *Entity) SetGuardRerouter(fn func(vc core.VCID) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.guardRerouteFn = fn
}

func (e *Entity) guardShedder() func(vc core.VCID, prob float64, horizon int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.guardShedFn
}

func (e *Entity) guardRerouter() func(vc core.VCID) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.guardRerouteFn
}

// SendDatagram transmits a connectionless user-data unit to a TSAP on a
// remote host — the datagram service the platform's invocation protocol
// uses (§2.2). Delivery is unacknowledged and may be lost.
func (e *Entity) SendDatagram(dst core.HostID, d *pdu.Datagram) error {
	return e.net.Send(netif.Packet{
		Src: e.host, Dst: dst, Prio: netif.PrioControl,
		Payload: d.Marshal(nil),
	})
}

// SetDatagramHandler installs the receiver for datagrams addressed to
// the given TSAP on this host, so independent services (the platform's
// RPC, clock synchronisation, ...) can share the datagram channel.
func (e *Entity) SetDatagramHandler(t core.TSAP, fn func(from core.HostID, d *pdu.Datagram)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dgramFn == nil {
		e.dgramFn = make(map[core.TSAP]func(from core.HostID, d *pdu.Datagram))
	}
	e.dgramFn[t] = fn
}

// SetTrace installs a primitive-sequence hook used by the
// figure-reproduction tests; at identifies the role observing the
// primitive ("initiator", "source", "dest").
func (e *Entity) SetTrace(fn func(at string, p core.Primitive)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.traceFn = fn
}

// EmitTrace reports a primitive observation through the installed trace
// hook; the orchestration layer uses it so Fig. 6/7 sequences interleave
// with transport primitives in one trace.
func (e *Entity) EmitTrace(at string, p core.Primitive) { e.trace(at, p) }

func (e *Entity) trace(at string, p core.Primitive) {
	e.mu.Lock()
	fn := e.traceFn
	e.mu.Unlock()
	if fn != nil {
		fn(at, p)
	}
}

// Close tears down every VC without peer notification and detaches from
// the network.
func (e *Entity) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.workDone)
	sends := make([]*SendVC, 0, len(e.sends))
	for _, s := range e.sends {
		sends = append(sends, s)
	}
	recvs := make([]*RecvVC, 0, len(e.recvs))
	for _, r := range e.recvs {
		recvs = append(recvs, r)
	}
	pend := e.pending
	e.pending = make(map[uint32]chan *pdu.Control)
	e.mu.Unlock()
	for _, ch := range pend {
		close(ch)
	}
	for _, s := range sends {
		s.teardown()
	}
	for _, r := range recvs {
		r.teardown()
	}
	for _, sh := range e.shards {
		close(sh.done)
	}
}

// SourceVC returns the send side of a VC whose source is this host.
func (e *Entity) SourceVC(id core.VCID) (*SendVC, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sends[id]
	return s, ok
}

// SinkVC returns the receive side of a VC whose sink is this host.
func (e *Entity) SinkVC(id core.VCID) (*RecvVC, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.recvs[id]
	return r, ok
}

// allocVC returns a network-unique VC ID (host in the high bits).
func (e *Entity) allocVC() core.VCID {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextVC++
	return core.VCID(uint32(e.host)<<16 | e.nextVC&0xFFFF)
}

// servedKey identifies a remote-connect request for replay suppression.
type servedKey struct {
	host core.HostID
	tok  uint32
}

// servedEntry is one replay-cache record: the cached result (nil while
// the request is still in progress) and its insertion time for TTL
// eviction.
type servedEntry struct {
	res *pdu.Control
	at  time.Time
}

// servedBegin atomically claims a replay-cache slot. When the key is
// already present it returns the cached result (nil while the original
// request is still in progress) and dup=true; otherwise it inserts an
// in-progress marker, evicting expired and excess entries. Replay
// suppression only has to outlive the initiator's retransmission window
// (ConnectTimeout), so TTL- and size-bounded eviction cannot un-suppress
// a replay that still matters.
func (e *Entity) servedBegin(k servedKey) (cached *pdu.Control, dup bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clk.Now()
	if ent, ok := e.served[k]; ok {
		return ent.res, true
	}
	e.served[k] = &servedEntry{at: now}
	e.servedQ = append(e.servedQ, k)
	e.evictServedLocked(now)
	return nil, false
}

// servedPut records the result for a slot claimed by servedBegin.
func (e *Entity) servedPut(k servedKey, res *pdu.Control) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent, ok := e.served[k]; ok {
		ent.res = res // keep the original insertion time for TTL purposes
	}
}

// evictServedLocked removes expired entries from the front of the
// insertion-order queue, then enforces the size cap oldest-first.
func (e *Entity) evictServedLocked(now time.Time) {
	expire := func(k servedKey) bool {
		ent, ok := e.served[k]
		if !ok {
			return true // already deleted; just drop the queue slot
		}
		if now.Sub(ent.at) >= e.cfg.ServedTTL {
			delete(e.served, k)
			return true
		}
		return false
	}
	i := 0
	for i < len(e.servedQ) && expire(e.servedQ[i]) {
		i++
	}
	for len(e.servedQ)-i > e.cfg.ServedCap && i < len(e.servedQ) {
		delete(e.served, e.servedQ[i])
		i++
	}
	if i > 0 {
		e.servedQ = append(e.servedQ[:0], e.servedQ[i:]...)
	}
}

// controlAttempts is how many times a confirmed control exchange is
// retried before reporting a timeout; control PDUs cross the same lossy
// network as everything else, so loss must be survivable.
const controlAttempts = 4

// request sends a control PDU and waits for the correlated reply,
// retransmitting a few times before giving up. Peers treat repeated
// requests idempotently.
func (e *Entity) request(dst core.HostID, c *pdu.Control) (*pdu.Control, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.nextTok++
	tok := e.nextTok
	ch := make(chan *pdu.Control, 1)
	e.pending[tok] = ch
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.pending, tok)
		e.mu.Unlock()
	}()

	c.Token = tok
	// Exponential backoff with jitter, normalised so the attempts spend
	// exactly ConnectTimeout; the token seeds the jitter so concurrent
	// exchanges from the same entity desynchronise.
	sched := backoff.Schedule(e.cfg.ConnectTimeout, controlAttempts,
		uint64(e.host)<<32|uint64(tok))
	for _, wait := range sched {
		if err := e.net.Send(netif.Packet{
			Src: e.host, Dst: dst, Prio: netif.PrioControl,
			Payload: c.Marshal(nil),
		}); err != nil {
			return nil, err
		}
		select {
		case reply, ok := <-ch:
			if !ok {
				return nil, ErrClosed
			}
			return reply, nil
		case <-e.workDone:
			// Entity shutdown must not sleep out the remaining backoff
			// window: abandon the exchange immediately.
			return nil, ErrClosed
		case <-e.clk.After(wait):
		}
	}
	return nil, ErrTimeout
}

// reply sends a correlated control reply.
func (e *Entity) reply(dst core.HostID, c *pdu.Control) {
	_ = e.net.Send(netif.Packet{
		Src: e.host, Dst: dst, Prio: netif.PrioControl,
		Payload: c.Marshal(nil),
	})
}

// sendCtl sends an uncorrelated control PDU (DR, XON/XOFF, ...).
func (e *Entity) sendCtl(dst core.HostID, c *pdu.Control) {
	_ = e.net.Send(netif.Packet{
		Src: e.host, Dst: dst, Prio: netif.PrioControl,
		Payload: c.Marshal(nil),
	})
}

// onPacket is the host's network receive handler. It must stay fast: data
// and ack TPDUs — the per-packet kinds — are decoded in place, copied once
// into a pooled buffer and handed to the owning shard; everything that can
// call user code goes through the bounded dispatch pool. The payload is
// the substrate's again when onPacket returns (netif.Handler), and every
// TPDU's CRC is verified exactly once, here, whichever decoder runs.
func (e *Entity) onPacket(p netif.Packet) {
	e.noteHeard(p.Src)
	switch kind, _ := pdu.PeekKind(p.Payload); kind {
	case pdu.KindData:
		var d pdu.Data
		if err := pdu.DecodeData(p.Payload, &d); err != nil {
			e.onDamaged(p)
			return
		}
		// Hand off to the VC's owning shard: one queue write, no entity
		// lock, no per-VC goroutine wake. The event owns the copy.
		rb := getRxBuf()
		rb.b = append(rb.b[:0], d.Payload...)
		d.Payload = rb.b
		e.shardFor(d.VC).tryPost(shardEvent{kind: evData, vc: d.VC, data: d, buf: rb})
	case pdu.KindAck:
		// Decoded straight into a pooled buffer's NAK storage; an ack
		// without NAKs, the usual kind, hands the buffer back at once.
		rb := getRxBuf()
		a := pdu.Ack{Naks: rb.naks}
		err := pdu.DecodeAck(p.Payload, &a)
		rb.naks = a.Naks
		if err != nil {
			rb.release()
			e.onDamaged(p)
			return
		}
		ev := shardEvent{kind: evAck, vc: a.VC, cum: a.CumSeq}
		if len(a.Naks) > 0 {
			ev.buf = rb
		} else {
			rb.release()
		}
		e.shardFor(a.VC).tryPost(ev)
	default:
		m, err := pdu.Decode(p.Payload)
		if err != nil {
			e.onDamaged(p)
			return
		}
		e.onMessage(p.Src, m)
	}
}

// onDamaged accounts a packet that failed its checksum. Damaged in
// transit: attribute it to the owning VC if the network tagged one; the
// receive side treats it as a detected error per its class of service.
func (e *Entity) onDamaged(p netif.Packet) {
	if p.Flow != 0 {
		if r, ok := e.SinkVC(p.Flow); ok {
			r.onDamaged()
		}
	}
}

// onMessage routes a decoded control, orchestration, report or datagram
// PDU; pdu.Decode copied what it carries, so the closures below may outlive
// the packet.
func (e *Entity) onMessage(from core.HostID, m pdu.Message) {
	switch msg := m.(type) {
	case *pdu.Orch:
		e.mu.Lock()
		fn := e.orchFn
		e.mu.Unlock()
		if fn != nil {
			e.dispatch(func() { fn(from, msg) })
		}
	case *pdu.QoSReport:
		e.dispatch(func() { e.onQoSReport(from, msg) })
	case *pdu.Datagram:
		e.mu.Lock()
		dfn := e.dgramFn[msg.DstTSAP]
		e.mu.Unlock()
		if dfn != nil {
			e.dispatch(func() { dfn(from, msg) })
		}
	case *pdu.Control:
		e.onControl(from, msg)
	}
}

// onControl dispatches control PDUs; handlers that may block or call user
// code are spun off.
func (e *Entity) onControl(from core.HostID, c *pdu.Control) {
	switch c.Kind {
	case pdu.KindConnConf, pdu.KindConnRej, pdu.KindRenegConf, pdu.KindRenegRej,
		pdu.KindRemoteConnResult, pdu.KindResumeConf:
		e.mu.Lock()
		ch := e.pending[c.Token]
		e.mu.Unlock()
		if ch != nil {
			select {
			case ch <- c:
			default:
			}
		}
	case pdu.KindConnReq:
		e.dispatch(func() { e.handleConnReq(from, c) })
	case pdu.KindResumeReq:
		e.dispatch(func() { e.handleResumeReq(from, c) })
	case pdu.KindRemoteConnReq:
		e.dispatch(func() { e.handleRemoteConnReq(from, c) })
	case pdu.KindRemoteDiscReq:
		e.dispatch(func() { e.handleRemoteDiscReq(c) })
	case pdu.KindRenegReq:
		e.dispatch(func() { e.handleRenegReq(from, c) })
	case pdu.KindDiscReq:
		e.dispatch(func() { e.handleDiscReq(c) })
	case pdu.KindDiscConf:
		// Release confirmations need no action in this implementation.
	case pdu.KindFlowOff:
		e.shardFor(c.VC).tryPost(shardEvent{kind: evFlow, vc: c.VC, on: true})
	case pdu.KindFlowOn:
		e.shardFor(c.VC).tryPost(shardEvent{kind: evFlow, vc: c.VC, on: false})
	case pdu.KindKeepalive:
		// Answer inline: liveness probes must work even when the
		// dispatch pool is saturated, or congestion would read as death.
		e.reply(from, &pdu.Control{Kind: pdu.KindKeepaliveAck, Token: c.Token})
	case pdu.KindKeepaliveAck:
		// The arrival alone refreshed lastHeard in onPacket.
	}
}

// onQoSReport delivers T-QoS.indication at this host and relays it to the
// remote initiator when the VC was remotely connected (§3.5 requires
// management responses to reach both initiator and source).
func (e *Entity) onQoSReport(from core.HostID, q *pdu.QoSReport) {
	ind := QoSIndication{VC: q.VC, Tuple: q.Tuple, Report: q.Report, Violated: q.Violated}
	src, haveSrc := e.SourceVC(q.VC)
	if haveSrc {
		ind.Contract = src.Contract()
	}
	if e.host == q.Tuple.Source.Host {
		// With prediction enabled the sink relays every sample period, but
		// only violated periods are T-QoS.indications — clean reports feed
		// the guard's predictor and nothing else, so user-visible behavior
		// with the guard disabled is byte-identical to the reactive-only
		// service.
		if len(q.Violated) > 0 {
			e.trace("source", core.TQoSIndication)
			if u, ok := e.user(q.Tuple.Source.TSAP); ok && u.OnQoS != nil {
				u.OnQoS(ind)
			}
			if haveSrc {
				src.noteViolation()
			}
			if q.Tuple.Remote() {
				_ = e.net.Send(netif.Packet{
					Src: e.host, Dst: q.Tuple.Initiator.Host, Prio: netif.PrioControl,
					Payload: q.Marshal(nil),
				})
			}
		}
		if haveSrc {
			src.guardObserve(q.Report, len(q.Violated) > 0)
		}
		return
	}
	if e.host == q.Tuple.Initiator.Host {
		e.trace("initiator", core.TQoSIndication)
		if u, ok := e.user(q.Tuple.Initiator.TSAP); ok && u.OnQoS != nil {
			u.OnQoS(ind)
		}
	}
}

// handleDiscReq tears down the local side of a VC at the peer's request.
func (e *Entity) handleDiscReq(c *pdu.Control) {
	if s, ok := e.SourceVC(c.VC); ok {
		e.trace("source", core.TDisconnectIndication)
		s.teardown()
		if u, ok := e.user(s.tuple.Source.TSAP); ok && u.OnDisconnect != nil {
			u.OnDisconnect(c.VC, c.Reason, false)
		}
		if c.Reason == core.ReasonNetworkFailure {
			e.notifyVCDown(s, c.Reason)
		}
	}
	if r, ok := e.SinkVC(c.VC); ok {
		e.trace("dest", core.TDisconnectIndication)
		r.teardown()
		if u, ok := e.user(r.tuple.Dest.TSAP); ok && u.OnDisconnect != nil {
			u.OnDisconnect(c.VC, c.Reason, false)
		}
	}
}

// dropSend removes a send VC from the table — only if the caller is the
// registered instance (a torn-down duplicate from a retransmitted CR must
// not evict the live VC).
func (e *Entity) dropSend(s *SendVC) {
	e.mu.Lock()
	if e.sends[s.id] == s {
		delete(e.sends, s.id)
		e.peerDelLocked(s.tuple.Dest.Host, s.id)
	}
	e.mu.Unlock()
}

// dropRecv removes a receive VC from the table, with the same
// pointer-identity guard as dropSend.
func (e *Entity) dropRecv(r *RecvVC) {
	e.mu.Lock()
	if e.recvs[r.id] == r {
		delete(e.recvs, r.id)
		e.peerDelLocked(r.tuple.Source.Host, r.id)
	}
	e.mu.Unlock()
}

// peerAddLocked indexes a live VC under the remote peer it depends on;
// caller holds mu. Self-addressed VCs are not peers.
func (e *Entity) peerAddLocked(peer core.HostID, vc core.VCID) {
	if peer == e.host {
		return
	}
	m := e.peerVCs[peer]
	if m == nil {
		m = make(map[core.VCID]struct{})
		e.peerVCs[peer] = m
	}
	m[vc] = struct{}{}
}

// peerDelLocked drops a VC from the peer index; caller holds mu.
func (e *Entity) peerDelLocked(peer core.HostID, vc core.VCID) {
	if m := e.peerVCs[peer]; m != nil {
		delete(m, vc)
		if len(m) == 0 {
			delete(e.peerVCs, peer)
		}
	}
}

// pathSpecSize picks the packet size used for path capability estimates:
// the wire unit is the smaller of the OSDU and the TPDU bound.
func (e *Entity) pathSpecSize(s qos.Spec) int {
	if s.MaxOSDUSize < e.cfg.MaxTPDU {
		return s.MaxOSDUSize
	}
	return e.cfg.MaxTPDU
}

// bytesPerSecond estimates the network bandwidth a contract needs. It
// deliberately uses the same per-OSDU cost model as the network's
// PathCapability (OSDU size plus one network-header overhead), so a rate
// granted by negotiation is always admissible by reservation.
func (e *Entity) bytesPerSecond(c qos.Contract) float64 {
	return c.Throughput * float64(c.MaxOSDUSize+32)
}

// capabilityFor computes what the path from src to dst can offer a flow
// with the given spec, in OSDUs per second. A hair of headroom is shaved
// off so float rounding can never make the granted rate unreservable.
func (e *Entity) capabilityFor(src, dst core.HostID, spec qos.Spec) (qos.Capability, error) {
	pc, err := e.net.PathCapability(src, dst, spec.MaxOSDUSize)
	if err != nil {
		return qos.Capability{}, err
	}
	pc.MaxThroughput *= 0.999
	return pc, nil
}
