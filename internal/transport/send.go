package transport

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/rate"
	"cmtos/internal/resv"
	"cmtos/internal/stats"
	"cmtos/internal/timerwheel"
)

// SendVC is the source side of a simplex virtual circuit. The application
// thread queues OSDUs with Write into the shared circular buffer (§3.7);
// the VC's owning shard drains the buffer, segments OSDUs into TPDUs,
// paces them with the profile's flow-control discipline, and retransmits
// per the class of service. The exported regulation hooks (Hold,
// DropQueued, ScaleRate, block statistics) are driven by the low-level
// orchestrator.
//
// Unlike the original goroutine-per-VC design (a send loop blocked in
// ring.Get plus a retransmit loop parked on clk.After), all protocol-side
// work runs as an event-driven pump on the owning shard: ring Puts,
// gate releases and ack credit wake the pump, and pacing debt, RTO sweeps
// and XOFF leases are deadlines on the shard's timer wheel.
type SendVC struct {
	e         *Entity
	sh        *shard
	id        core.VCID
	tuple     core.ConnectTuple
	profile   qos.Profile
	class     qos.Class
	resvID    resv.ID
	resvExtra []resv.ID     // multicast: one reservation per branch
	members   []core.HostID // every TPDU goes to each: the sink, or each multicast member

	ring *cbuf.Ring

	// retain, when enabled by the session layer, keeps copies of OSDUs
	// popped from the ring so a resumed VC can replay from the sink's
	// delivery watermark. Atomic because EnableRetention may run after the
	// pump is already draining the ring. path is the admitted route
	// (nil for best effort), kept so recovery can avoid its dead hops.
	retain atomic.Pointer[cbuf.Retainer]
	path   []core.HostID

	mu       sync.Mutex
	contract qos.Contract
	gates    gateBit
	nextSeq  core.OSDUSeq
	tpduSeq  uint64
	lastCum  uint64 // highest cumulative ack seen (window credit)
	closed   bool

	bucket *rate.Bucket // cm-rate profile pacing (bytes/sec)
	window *rate.Window // window profile credit / correcting-class bound

	written  atomic.Uint64 // OSDUs accepted by Write or Publish
	sent     atomic.Uint64 // OSDUs fully transmitted for the first time
	replayed atomic.Uint64 // OSDUs re-transmitted from a predecessor incarnation
	sentSeq  atomic.Uint64 // sequence number just past the last transmitted OSDU
	dropped  atomic.Uint64 // OSDUs discarded at the source by regulation

	// replayBase is the successor incarnation's initial nextSeq (0 on a
	// fresh VC): OSDUs below it were assigned — and counted written/sent —
	// by a predecessor under the same VC scope, so the pump accounts their
	// re-transmission as osdus_replayed instead of double-counting
	// osdus_sent. Set once before start(), then read-only.
	replayBase core.OSDUSeq

	// pumpQueued coalesces cross-thread pump wake-ups: at most one evPump
	// for this VC sits in the shard's control queue at a time.
	pumpQueued atomic.Bool

	// protoStall accumulates time the pump spent starved for data
	// (nanoseconds) — the "protocol blocked at source" statistic that the
	// blocking Get used to measure.
	protoStall atomic.Int64

	// Everything below is shard-confined: only the owning shard's loop
	// (pump, timer callbacks, onAck, peerHold, shardClose) touches it, so
	// no locks are needed.
	pendValid  bool      // an OSDU is mid-segmentation
	pend       cbuf.OSDU // current OSDU; Payload is the ring's scratch, see pump
	frag       int       // next fragment index to transmit
	frags      int       // fragment count for pend
	paid       bool      // pacing debt taken for the current fragment
	creditHeld bool      // window credit held for the current fragment
	starving   bool      // pump found the ring empty
	starveAt   time.Time

	retrans     *retransWindow // correcting classes only
	retransFunc func()         // retransTick, bound once: re-arming with the method value allocates

	// xoffLease expires a peer-flow-control hold if the sink's XON is
	// lost; the sink refreshes XOFF while it still needs the pause.
	pumpTimer    timerwheel.Timer
	retransTimer timerwheel.Timer
	xoffLease    timerwheel.Timer
	xoffHeld     bool
	xoffAt       time.Time

	si sendInstr

	// Automatic-degradation state (see degrade.go); only touched when
	// Config.DegradeAfter is enabled.
	deg struct {
		sync.Mutex
		streak   int       // consecutive violated sample reports
		lastViol time.Time // when the latest violated report arrived
		step     int       // next ladder rung to try
		active   bool      // a degradation exchange is in flight
	}

	// guard is the predictive QoS guard (see guard.go); nil unless
	// Config.PredictThreshold is enabled.
	guard *vcGuard

	closeOnce sync.Once
}

// sendInstr holds the VC's registry instruments; all nil when metrics
// are disabled.
type sendInstr struct {
	written      *stats.Counter
	sent         *stats.Counter
	replayed     *stats.Counter
	dropped      *stats.Counter
	retransmits  *stats.Counter
	ackRTT       *stats.Histogram
	xoffHolds    *stats.Counter
	xoffExpiries *stats.Counter
	xoffHold     *stats.Histogram
	protoBlock   *stats.Histogram
}

// pacerSlack bounds how far ahead of its contract a VC may run before the
// pacer holds it: the bucket is at least this much of the contract deep.
// Any pacing debt, however small, costs a whole tick of the shard's timer
// wheel, during which the bucket refills no further than its depth; once
// the pump encodes a TPDU in less time than a contract grants it (under a
// microsecond at 1e6 OSDU/s), a two-OSDU bucket is in debt after a handful
// of back-to-back OSDUs and the VC delivers a few per tick instead of its
// contract. A tenth of a tick leaves every contract up to 20 000 OSDU/s
// with exactly the two-OSDU bucket.
const pacerSlack = 100 * time.Microsecond

func newSendVC(e *Entity, id core.VCID, tup core.ConnectTuple, profile qos.Profile, class qos.Class, contract qos.Contract, resvID resv.ID) *SendVC {
	s := &SendVC{
		e:       e,
		sh:      e.shardFor(id),
		id:      id,
		tuple:   tup,
		members: []core.HostID{tup.Dest.Host},
		profile: profile,
		class:   class,
		resvID:  resvID,
		ring:    cbuf.New(e.clk, e.cfg.RingSlots, contract.MaxOSDUSize),
	}
	s.contract = contract
	// Rate-based flow control paces logical units: the contract's
	// throughput is an OSDU rate, and "at each time period there will
	// always be something to transmit (one logical unit)" (§3.7) — so
	// the bucket is denominated in OSDUs, with a two-OSDU burst, or
	// pacerSlack of the contract where that is more.
	s.bucket = rate.NewBucket(e.clk, contract.Throughput, max(2, contract.Throughput*pacerSlack.Seconds()))
	if profile == qos.ProfileWindow {
		s.window = rate.NewWindow(e.cfg.WindowSize)
	} else if class.Corrects() {
		s.window = rate.NewWindow(e.cfg.RetransBuf)
	}
	if class.Corrects() {
		s.retrans = &retransWindow{}
		s.retransFunc = s.retransTick
	}
	sc := e.scope.Scope(vcScopeName(id)).Scope("send")
	s.si = sendInstr{
		written:      sc.Counter("osdus_written"),
		sent:         sc.Counter("osdus_sent"),
		replayed:     sc.Counter("osdus_replayed"),
		dropped:      sc.Counter("osdus_dropped"),
		retransmits:  sc.Counter("retransmits"),
		ackRTT:       sc.Histogram("ack_rtt_seconds", stats.DurationBuckets()),
		xoffHolds:    sc.Counter("xoff_holds"),
		xoffExpiries: sc.Counter("xoff_expiries"),
		xoffHold:     sc.Histogram("xoff_hold_seconds", stats.DurationBuckets()),
		protoBlock:   sc.Histogram("block_proto_seconds", stats.DurationBuckets()),
	}
	s.ring.SetBlockStats(
		sc.Histogram("block_app_seconds", stats.DurationBuckets()),
		s.si.protoBlock,
	)
	s.ring.SetDataNotify(s.schedulePump)
	if e.cfg.PredictThreshold > 0 && contract.Guarantee == qos.Soft {
		s.guard = newVCGuard(e, id)
	}
	return s
}

// start hands the VC to its owning shard; the registration event runs the
// first pump, picking up anything already written.
func (s *SendVC) start() {
	s.sh.post(shardEvent{kind: evRegSend, send: s})
}

// ID returns the VC identifier.
func (s *SendVC) ID() core.VCID { return s.id }

// Tuple returns the VC's connect addresses.
func (s *SendVC) Tuple() core.ConnectTuple { return s.tuple }

// Class returns the VC's class of service.
func (s *SendVC) Class() qos.Class { return s.class }

// Profile returns the VC's protocol profile.
func (s *SendVC) Profile() qos.Profile { return s.profile }

// Contract returns the currently agreed QoS contract.
func (s *SendVC) Contract() qos.Contract {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.contract
}

// Write queues one OSDU with an optional event-field value, blocking
// while the shared buffer is full (that blocking time is the
// "application blocked at source" statistic of §6.3.1.2). It returns the
// OSDU sequence number assigned. Write is intended for a single
// application thread per VC.
func (s *SendVC) Write(payload []byte, event core.EventPattern) (core.OSDUSeq, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	seq := s.nextSeq
	s.mu.Unlock()
	if err := s.ring.Put(cbuf.OSDU{Seq: seq, Event: event, Payload: payload}); err != nil {
		// The seq was never committed: a teardown that fails this Put (the
		// ring closing under a blocked writer) must not burn a sequence
		// number, or the successor incarnation would resume past a seq no
		// OSDU ever carried and the receiver would see a phantom loss.
		return 0, err
	}
	s.mu.Lock()
	s.nextSeq = seq + 1
	s.mu.Unlock()
	s.written.Add(1)
	s.si.written.Inc()
	return seq, nil
}

// Written returns the count of OSDUs accepted by Write.
func (s *SendVC) Written() uint64 { return s.written.Load() }

// Sent returns the count of OSDUs fully transmitted for the first time
// (replays of a predecessor incarnation's OSDUs are counted by Replayed).
func (s *SendVC) Sent() uint64 { return s.sent.Load() }

// Replayed returns the count of predecessor-incarnation OSDUs this VC
// re-transmitted after a resume.
func (s *SendVC) Replayed() uint64 { return s.replayed.Load() }

// SentSeq returns the OSDU sequence number one past the last OSDU fully
// transmitted. It leads Sent() once regulation drops OSDUs at the source.
func (s *SendVC) SentSeq() core.OSDUSeq { return core.OSDUSeq(s.sentSeq.Load()) }

// Dropped returns the count of OSDUs discarded at the source by
// regulation (Orch.Regulate's max-drop budget).
func (s *SendVC) Dropped() uint64 { return s.dropped.Load() }

// Queued returns the number of OSDUs waiting in the source buffer.
func (s *SendVC) Queued() int { return s.ring.Len() }

// DropQueued discards up to max queued OSDUs, newest first, returning how
// many were dropped — the source-side catch-up compensation of §6.3.1.1.
func (s *SendVC) DropQueued(max int) int {
	n := 0
	for n < max {
		if _, ok := s.ring.DropNewest(); !ok {
			break
		}
		n++
	}
	s.dropped.Add(uint64(n))
	s.si.dropped.Add(uint64(n))
	return n
}

// FlushQueued discards every queued OSDU (stop-then-seek buffer clean,
// §6.2.1) and returns how many were discarded.
func (s *SendVC) FlushQueued() int { return s.ring.Flush() }

// Hold freezes transmission (Orch.Stop / ahead-of-target blocking).
func (s *SendVC) Hold() { s.setGate(gateOrch, true) }

// Release resumes transmission.
func (s *SendVC) Release() {
	s.setGate(gateOrch, false)
	s.schedulePump()
}

// Held reports whether an orchestration hold is in force.
func (s *SendVC) Held() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gates&gateOrch != 0
}

// ScaleRate adjusts the pacing rate to factor × the contract rate — the
// fine-grained speed correction available to the orchestration layer.
// factor 1 restores the contract rate.
func (s *SendVC) ScaleRate(factor float64) {
	if factor <= 0 {
		return
	}
	s.mu.Lock()
	osduRate := s.contract.Throughput
	s.mu.Unlock()
	s.bucket.SetRate(osduRate * factor)
}

// TakeBlockStats returns and resets the source-side blocking times: how
// long the application thread blocked on a full buffer, and how long the
// protocol side was starved waiting for data (§6.3.1.2).
func (s *SendVC) TakeBlockStats() (app, proto time.Duration) {
	st := s.ring.TakeStats()
	return st.ProducerBlocked, st.ConsumerBlocked + time.Duration(s.protoStall.Swap(0))
}

// Close releases the VC with T-Disconnect.request toward the sink.
func (s *SendVC) Close(reason core.Reason) error {
	return s.e.Disconnect(s.id, reason)
}

// Suspend tears the VC down locally without notifying the peer: timers
// stop, the reservation is released, and the ring closes, but no
// disconnect PDU is sent and no VC-down notification fires. The sink
// keeps running until a successor incarnation seals it through the
// resume machinery, so a session layer can proactively migrate a
// still-healthy VC onto a better path (guard re-route) the same way it
// recovers a dead one.
func (s *SendVC) Suspend() {
	s.teardown()
}

// EnableRetention attaches a replay store to the VC: every OSDU popped from
// the ring is copied and held (at most slots entries, each at most maxAge)
// so a session-layer resume can replay unacknowledged data. Must be called
// before traffic flows — typically right after Connect returns.
func (s *SendVC) EnableRetention(slots int, maxAge time.Duration) *cbuf.Retainer {
	rt := cbuf.NewRetainer(s.e.clk, slots, maxAge)
	s.retain.Store(rt)
	return rt
}

// Retainer returns the replay store installed by EnableRetention, or nil.
func (s *SendVC) Retainer() *cbuf.Retainer { return s.retain.Load() }

// Path returns the admitted route for the VC's reservation (nil when best
// effort). The session layer uses it to avoid dead hops on recovery.
func (s *SendVC) Path() []core.HostID { return s.path }

// ResumeState snapshots the sequence counters a successor VC must carry
// over: the next unassigned OSDU sequence and the last TPDU sequence used.
// Meant to be read after teardown, when both counters are final.
func (s *SendVC) ResumeState() (nextSeq core.OSDUSeq, nextTPDU uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ns := s.nextSeq
	// Write commits nextSeq only after its ring Put succeeds, so a Put that
	// squeaked in just before the teardown may be visible in the ring or the
	// retainer a beat before the counter advances. Reconcile against both
	// tails so the successor never hands out a sequence number that a live
	// OSDU already carries.
	if rt := s.retain.Load(); rt != nil {
		if last, ok := rt.LastSeq(); ok && last+1 > ns {
			ns = last + 1
		}
	}
	if last, ok := s.ring.LastSeq(); ok && last+1 > ns {
		ns = last + 1
	}
	return ns, s.tpduSeq
}

// DrainUnsent removes and returns every OSDU still queued in the ring —
// accepted by Write but never handed to the protocol thread. Used after
// teardown to fold the queued remainder into a resume replay.
func (s *SendVC) DrainUnsent() []cbuf.OSDU { return s.ring.Drain() }

// Replay re-enqueues a retained OSDU on a resumed VC without assigning a
// new sequence number: the OSDU keeps the sequence the failed incarnation
// gave it, so the receiver observes one unbroken stream. The predecessor
// already counted the OSDU written under this VC's stats scope, so replays
// are accounted separately rather than inflating osdus_written again.
func (s *SendVC) Replay(u cbuf.OSDU) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	return s.ring.Put(u)
}

// TryPublish queues an OSDU that already carries its sequence number,
// without blocking — the relay splice's re-publication path: a tapped
// ingest OSDU keeps its upstream sequence on every egress VC, so OSDU
// boundaries and numbering survive each hop intact. It reports false when
// the ring is full (the caller retries via its own retention). Publish and
// Write must not be mixed with out-of-order sequences on one VC.
func (s *SendVC) TryPublish(u cbuf.OSDU) (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	s.mu.Unlock()
	ok, err := s.ring.TryPut(u)
	if err != nil || !ok {
		return ok, err
	}
	s.notePublished(u.Seq)
	return true, nil
}

// Publish is TryPublish with blocking-on-full semantics, for out-of-band
// catch-up replay when an egress joins or adopts mid-stream.
func (s *SendVC) Publish(u cbuf.OSDU) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.mu.Unlock()
	if err := s.ring.Put(u); err != nil {
		return err
	}
	s.notePublished(u.Seq)
	return nil
}

// notePublished commits a published sequence number: nextSeq advances
// monotonically past it so a later Write or ResumeState never reuses a
// sequence a published OSDU already carries.
func (s *SendVC) notePublished(seq core.OSDUSeq) {
	s.mu.Lock()
	if seq+1 > s.nextSeq {
		s.nextSeq = seq + 1
	}
	s.mu.Unlock()
	s.written.Add(1)
	s.si.written.Inc()
}

// isClosed reports whether teardown has run.
func (s *SendVC) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// schedulePump posts a coalesced pump wake-up to the owning shard. It is
// the cross-thread edge of the pump: ring Puts (via the data-notify
// hook), Release and renegotiation call it from application threads.
// Shard-context code calls pump directly instead of posting to itself.
func (s *SendVC) schedulePump() {
	if s.pumpQueued.CompareAndSwap(false, true) {
		s.sh.post(shardEvent{kind: evPump, send: s})
	}
}

// peerHold engages or releases the sink's flow-control hold. Holds are
// leases: they expire after a few RTOs unless the sink refreshes them, so
// a lost XON cannot stall the VC forever. Runs on the owning shard, so
// the lease timer needs no generation stamp — Cancel/Schedule on the
// wheel is deterministic here.
func (s *SendVC) peerHold(on bool) {
	s.sh.wheel.Cancel(&s.xoffLease)
	if on {
		if !s.xoffHeld {
			s.xoffHeld = true
			s.xoffAt = s.e.clk.Now()
			s.si.xoffHolds.Inc()
		}
		s.sh.schedule(&s.xoffLease, 4*s.e.cfg.RTO, s.xoffExpire)
		// Stop accruing pacing credit while held: resuming must not
		// release a burst that overruns the sink again.
		s.bucket.Pause()
		s.setGate(gatePeer, true)
		return
	}
	s.endPeerHold()
	s.bucket.Resume()
	s.setGate(gatePeer, false)
	s.pump()
}

// xoffExpire releases a hold whose lease ran out without an XON — the
// sink crashed or its XON was lost.
func (s *SendVC) xoffExpire() {
	if !s.xoffHeld {
		return
	}
	s.si.xoffExpiries.Inc()
	s.endPeerHold()
	s.bucket.Resume()
	s.setGate(gatePeer, false)
	s.pump()
}

// endPeerHold closes out the current hold episode; shard context.
func (s *SendVC) endPeerHold() {
	if s.xoffHeld {
		s.xoffHeld = false
		s.si.xoffHold.Observe(s.e.clk.Since(s.xoffAt).Seconds())
	}
}

// setGate sets or clears one hold bit.
func (s *SendVC) setGate(bit gateBit, on bool) {
	s.mu.Lock()
	if on {
		s.gates |= bit
	} else {
		s.gates &^= bit
	}
	s.mu.Unlock()
}

// pumpTick is the wheel callback for pacing debt.
func (s *SendVC) pumpTick() { s.pump() }

// pump drains the ring: segment, pace, send. It runs only on the owning
// shard and returns whenever it cannot make progress — a gate is up, the
// window is out of credit, the pacing bucket is in debt (a wheel timer
// re-enters), or the ring is empty (the next Put re-enters via the
// data-notify hook).
func (s *SendVC) pump() {
	if s.pumpTimer.Armed() {
		// Pacing debt outstanding: the current fragment is paid for but its
		// debt has not elapsed. Any other wake-up (a Write's evPump, an ack,
		// a gate release) must yield to the wheel timer, or each one would
		// smuggle a fragment past the pacer.
		return
	}
	maxTPDU := s.e.cfg.MaxTPDU
	for {
		s.mu.Lock()
		gates, closed := s.gates, s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if !s.pendValid {
			u, ok, err := s.ring.TryGet()
			if err != nil {
				return
			}
			if !ok {
				if !s.starving {
					s.starving = true
					s.starveAt = s.e.clk.Now()
				}
				return
			}
			if s.starving {
				s.starving = false
				d := s.e.clk.Since(s.starveAt)
				s.protoStall.Add(int64(d))
				s.si.protoBlock.Observe(d.Seconds())
			}
			if rt := s.retain.Load(); rt != nil {
				// Retain before any gate or pacing wait: once an OSDU is
				// popped the ring forgets it, so this copy is the only
				// thing standing between a mid-transmission failure and
				// data loss.
				rt.Keep(u)
			}
			// No copy: u.Payload is the ring's consumer scratch, and this
			// pump — the ring's only consumer — does not TryGet again until
			// the last fragment below is encoded (cbuf.Ring.TryGet).
			s.pend = u
			s.frags = (len(u.Payload) + maxTPDU - 1) / maxTPDU
			if s.frags == 0 {
				s.frags = 1 // zero-length OSDUs still occupy one TPDU
			}
			s.frag = 0
			s.paid = false
			s.creditHeld = false
			s.pendValid = true
		}
		if gates != 0 {
			return // the gate release re-pumps
		}
		// Credit first (window profile and correcting classes), then rate.
		if s.window != nil && !s.creditHeld {
			if !s.window.TryAcquire() {
				return // the ack that releases credit re-pumps
			}
			s.creditHeld = true
		}
		if s.profile == qos.ProfileCMRate && !s.paid {
			s.paid = true
			if debt := s.bucket.Take(1 / float64(s.frags)); debt > 0 {
				s.sh.schedule(&s.pumpTimer, debt, s.pumpTick)
				return
			}
		}
		size := len(s.pend.Payload)
		lo := s.frag * maxTPDU
		hi := lo + maxTPDU
		if hi > size {
			hi = size
		}
		var payload []byte
		if size > 0 {
			payload = s.pend.Payload[lo:hi]
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		seq := s.nextTPDUSeqLocked()
		s.mu.Unlock()
		d := pdu.Data{
			VC:        s.id,
			Seq:       seq,
			OSDU:      s.pend.Seq,
			Frag:      uint16(s.frag),
			FragCount: uint16(s.frags),
			OSDUSize:  uint32(size),
			Event:     s.pend.Event,
			Payload:   payload,
			SentAt:    s.e.clk.Now(),
		}
		// Encoded once, into one buffer: the shard's, reused for the next
		// TPDU, or for a correcting class one of the VC's own that then is
		// the retransmit entry.
		if s.retrans == nil {
			s.sh.tx = d.Marshal(s.sh.tx[:0])
			s.transmit(s.sh.tx)
		} else {
			tpdu := d.Marshal(s.retrans.buffer())
			s.retrans.push(seq, tpdu, d.SentAt)
			if !s.retransTimer.Armed() {
				s.sh.schedule(&s.retransTimer, s.e.cfg.RTO, s.retransFunc)
			}
			s.transmit(tpdu)
		}
		s.frag++
		s.paid = false
		s.creditHeld = false
		if s.frag == s.frags {
			s.pendValid = false
			if s.pend.Seq < s.replayBase {
				// A predecessor incarnation already counted this OSDU sent
				// on this hop; its re-transmission is a replay, not a send.
				s.replayed.Add(1)
				s.si.replayed.Inc()
			} else {
				s.sent.Add(1)
				s.si.sent.Inc()
			}
			// Monotonic: a replay must not drag the transmit watermark
			// backwards past sequences already covered.
			if next := uint64(s.pend.Seq) + 1; next > s.sentSeq.Load() {
				s.sentSeq.Store(next)
			}
			s.pend = cbuf.OSDU{}
		}
	}
}

// nextTPDUSeqLocked allocates the next TPDU sequence number; caller holds mu.
func (s *SendVC) nextTPDUSeqLocked() uint64 {
	s.tpduSeq++
	return s.tpduSeq
}

// transmit puts one encoded TPDU on the wire at the VC's priority, one
// unicast packet per member: the members share the VC id, so each gets
// the same bytes. The substrate borrows tpdu only until Send returns.
func (s *SendVC) transmit(tpdu []byte) {
	prio := netif.PrioGuaranteed
	if s.Contract().Guarantee == qos.BestEffort {
		prio = netif.PrioBestEffort
	}
	for _, dst := range s.members {
		_ = s.e.net.Send(netif.Packet{
			Src: s.tuple.Source.Host, Dst: dst,
			Flow: s.id, Prio: prio, Payload: tpdu,
		})
	}
}

// retransmit re-sends a retransmit entry's stored bytes — byte-identical
// to the first transmission, SentAt field included.
func (s *SendVC) retransmit(tpdu []byte) {
	s.si.retransmits.Inc()
	s.transmit(tpdu)
}

// onAck processes cumulative and selective acknowledgements (correcting
// classes and the window profile): every entry below cum is released
// unless the receiver NAKed it, and every NAKed entry is re-sent. Only
// newly covered and NAKed entries are visited. naks is valid for the call.
// Shard context.
func (s *SendVC) onAck(cum uint64, naks []uint64) {
	if s.retrans == nil {
		if s.window != nil {
			// Window profile without correction: the cumulative ack
			// returns credit for every newly covered TPDU.
			s.mu.Lock()
			released := int64(cum) - int64(s.lastCum)
			if released > 0 {
				s.lastCum = cum
			}
			s.mu.Unlock()
			if released > 0 {
				s.window.Release(int(released))
				s.pump()
			}
		}
		return
	}
	w := s.retrans
	now := s.e.clk.Now()
	released := 0
	w.ack(cum, naks, now, s.retransmit, func(rtt time.Duration) {
		s.si.ackRTT.Observe(rtt.Seconds())
		released++
	})
	if w.live() == 0 {
		// Nothing left to retransmit: stop the RTO sweep until the next
		// in-flight TPDU arms it again.
		s.sh.wheel.Cancel(&s.retransTimer)
	}
	if released > 0 {
		if s.window != nil {
			s.window.Release(released)
		}
		s.pump()
	}
}

// retransTick re-sends unacknowledged TPDUs older than the RTO; it stays
// armed only while something is actually in flight.
func (s *SendVC) retransTick() {
	w := s.retrans
	now := s.e.clk.Now()
	rto := s.e.cfg.RTO
	resendIfDue := func(e *retransEntry) {
		if now.Sub(e.sentAt) >= rto {
			s.retransmit(e.tpdu)
			e.sentAt = now
		}
	}
	for i := range w.naked {
		resendIfDue(&w.naked[i])
	}
	for i := 0; i < w.n; i++ {
		resendIfDue(w.at(i))
	}
	if w.live() > 0 {
		s.sh.schedule(&s.retransTimer, rto, s.retransFunc)
	}
}

// retransEntry is one unacknowledged TPDU of a correcting class: the
// encoded bytes exactly as first transmitted, and when they last left.
type retransEntry struct {
	seq    uint64
	tpdu   []byte
	sentAt time.Time
}

// retransWindow holds a correcting VC's unacknowledged TPDUs. The pump
// numbers TPDUs consecutively and cumulative acks cover a prefix, so the
// in-flight entries are always one contiguous sequence range [lo, lo+n):
// they sit in a power-of-two ring indexed by sequence number, pushed at
// the top and popped at the bottom with no searching. An entry an ack
// covered but NAKed moves to the short naked list until a later ack lets
// it go. The rate.Window credit bounds n+len(naked); the ring grows on
// demand towards that bound instead of being allocated at it, and encode
// buffers are recycled through free the same way, so an idle VC holds
// neither. Shard-confined.
type retransWindow struct {
	ring  []retransEntry // len is zero or a power of two
	lo    uint64         // sequence number of the oldest in-flight entry
	n     int
	naked []retransEntry
	free  [][]byte // released encode buffers, reused by buffer
}

// ack applies one acknowledgement to the window at time now: an entry the
// receiver NAKed is re-sent (resend gets its bytes, its RTO restarts) and
// kept; any other entry below cum is released (released gets the time since
// it last left) and its buffer recycled. Only the naked list and the newly
// covered low end of the ring are visited. The callbacks take values, so
// entries stay off the heap.
func (w *retransWindow) ack(cum uint64, naks []uint64, now time.Time, resend func(tpdu []byte), released func(rtt time.Duration)) {
	// Entries an earlier ack covered but NAKed: owed until an ack stops
	// asking for them.
	kept := w.naked[:0]
	for _, e := range w.naked {
		switch {
		case slices.Contains(naks, e.seq):
			resend(e.tpdu)
			e.sentAt = now
			kept = append(kept, e)
		case e.seq < cum:
			released(now.Sub(e.sentAt))
			w.recycle(e.tpdu)
		default:
			kept = append(kept, e)
		}
	}
	clear(w.naked[len(kept):])
	w.naked = kept
	// Newly covered entries leave the in-flight range from its low end.
	for w.n > 0 && w.lo < cum {
		e := w.pop()
		if slices.Contains(naks, e.seq) {
			resend(e.tpdu)
			e.sentAt = now
			w.naked = append(w.naked, e)
		} else {
			released(now.Sub(e.sentAt))
			w.recycle(e.tpdu)
		}
	}
}

// live is the number of entries still awaiting acknowledgement.
func (w *retransWindow) live() int { return w.n + len(w.naked) }

// at returns the i-th oldest in-flight entry.
func (w *retransWindow) at(i int) *retransEntry {
	return &w.ring[(w.lo+uint64(i))&uint64(len(w.ring)-1)]
}

// buffer returns an empty buffer to encode the next TPDU into: a recycled
// one when there is one, else nil (Marshal then allocates its exact size).
func (w *retransWindow) buffer() []byte {
	k := len(w.free)
	if k == 0 {
		return nil
	}
	b := w.free[k-1]
	w.free[k-1] = nil
	w.free = w.free[:k-1]
	return b[:0]
}

// recycle takes back the buffer of a released entry.
func (w *retransWindow) recycle(b []byte) {
	poison(b)
	w.free = append(w.free, b)
}

// push adds the entry for seq, the sequence number after the newest.
func (w *retransWindow) push(seq uint64, tpdu []byte, sentAt time.Time) {
	if w.n == 0 {
		w.lo = seq
	}
	if w.n == len(w.ring) {
		grown := make([]retransEntry, max(2*len(w.ring), 8))
		for i := 0; i < w.n; i++ {
			e := w.at(i)
			grown[e.seq&uint64(len(grown)-1)] = *e
		}
		w.ring = grown
	}
	w.n++
	*w.at(w.n - 1) = retransEntry{seq: seq, tpdu: tpdu, sentAt: sentAt}
}

// pop removes and returns the oldest in-flight entry.
func (w *retransWindow) pop() retransEntry {
	slot := w.at(0)
	e := *slot
	*slot = retransEntry{}
	w.lo++
	w.n--
	return e
}

// shardClose disarms the VC's wheel timers on the owning shard; after it
// runs no stale callback can fire against the dead VC. The goroutine-per-
// VC code never stopped the XOFF lease timer at teardown, so a hold
// engaged at close would later "expire" and count an xoff_expiry against
// a VC that no longer existed.
func (s *SendVC) shardClose() {
	s.sh.wheel.Cancel(&s.pumpTimer)
	s.sh.wheel.Cancel(&s.retransTimer)
	s.sh.wheel.Cancel(&s.xoffLease)
	s.endPeerHold()
	s.pendValid = false
	s.pend = cbuf.OSDU{}
	s.retrans = nil // unacknowledged TPDUs and spare buffers go to the collector
}

// teardown stops the VC and frees its resources. Safe to call more than
// once.
func (s *SendVC) teardown() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.ring.Close()
		if s.window != nil {
			s.window.Close()
		}
		if s.resvID != 0 {
			_ = s.e.rm.Release(s.resvID)
		}
		for _, id := range s.resvExtra {
			_ = s.e.rm.Release(id)
		}
		s.e.dropSend(s)
		s.sh.post(shardEvent{kind: evCloseSend, send: s})
	})
}
