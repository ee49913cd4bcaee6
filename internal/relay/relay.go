// Package relay generalizes the point-to-point VC model into fan-out
// distribution trees: a relay entity splices one upstream (ingest) sink VC
// onto N downstream (egress) source VCs, re-publishing every delivered
// OSDU with its boundaries and sequence numbering intact. Trees of relays
// let one source reach arbitrarily many sinks while its own uplink carries
// only its direct children's VCs — the Livepeer-style origin→edge topology
// that ROADMAP item 1 calls for.
//
// Data plane: the splice installs a transport delivery tap on the ingest
// VC, so in-order OSDUs are handed to it on the ingest shard with no
// application thread and no extra queue. The payload is the transport's
// recycled receive buffer, lent until the tap returns, so the splice keeps
// nothing by reference: Retainer.Keep copies the OSDU into its history and
// SendVC.TryPublish (which preserves the sequence) copies it into each
// egress ring. When any egress ring is full the tap refuses delivery, which
// backpressures the relay's upstream — pressure propagates source-ward hop
// by hop.
//
// Control plane: every spliced OSDU is also kept in a bounded retainer, so
// the splice can adopt a leaf that lost its parent: Adopt resumes the
// leaf's old VC from this relay (the PR 4 resurrection machinery, keyed to
// the splice's delivery watermark), replays the retained gap, and then
// hands the egress to the live tap — no accepted OSDU is lost or
// duplicated across the re-parent. AddSink joins a new leaf mid-stream at
// the current splice head.
package relay

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/core"
	"cmtos/internal/qos"
	"cmtos/internal/stats"
	"cmtos/internal/transport"
)

// Config parameterizes a relay node.
type Config struct {
	// Stats receives the relay/<vc>/ counters; nil disables metrics.
	Stats *stats.Registry
	// RetainSlots bounds each splice's replay history in OSDUs
	// (default 1024). Adoption of a leaf whose watermark has aged out of
	// the history fails rather than silently losing data.
	RetainSlots int
	// RetainAge bounds the age of retained OSDUs (default 30s, matching
	// the transport resume window).
	RetainAge time.Duration
}

func (c Config) withDefaults() Config {
	if c.RetainSlots == 0 {
		c.RetainSlots = 1024
	}
	if c.RetainAge == 0 {
		c.RetainAge = 30 * time.Second
	}
	return c
}

// Node is one relay entity: it accepts ingest VCs on a listening TSAP and
// wraps each in a Splice. The same transport entity may simultaneously be
// a source, a sink, and a relay — a splice is just a VC pair pattern.
type Node struct {
	e   *transport.Entity
	cfg Config

	mu      sync.Mutex
	splices map[core.VCID]*Splice
}

// NewNode wraps a transport entity as a relay.
func NewNode(e *transport.Entity, cfg Config) *Node {
	return &Node{e: e, cfg: cfg.withDefaults(), splices: make(map[core.VCID]*Splice)}
}

// Entity returns the underlying transport entity.
func (n *Node) Entity() *transport.Entity { return n.e }

// Listen attaches the relay to a TSAP: every VC connected (or resumed)
// with that TSAP as sink becomes a splice ingest. A resumed ingest
// reattaches to its existing splice, keeping the egress set and replay
// history across an upstream failure.
func (n *Node) Listen(t core.TSAP) error {
	return n.e.Attach(t, transport.UserCallbacks{
		OnRecvReady: func(r *transport.RecvVC) { n.Accept(r) },
	})
}

// Accept wires an ingest VC into a (new or surviving) splice and returns
// it. Listen calls it for every VC arriving on the relay TSAP; attach
// flows that need their own callbacks on the ingest TSAP (disconnect
// notification, admission checks) can Attach themselves and call Accept
// from OnRecvReady.
func (n *Node) Accept(r *transport.RecvVC) *Splice {
	n.mu.Lock()
	sp := n.splices[r.ID()]
	if sp == nil {
		sc := n.cfg.Stats.Scope(fmt.Sprintf("relay/%d", uint32(r.ID())))
		sp = &Splice{
			n:  n,
			id: r.ID(),
			rt: cbuf.NewRetainer(n.e.Clock(), n.cfg.RetainSlots, n.cfg.RetainAge),
			si: spliceInstr{
				fanout:    sc.Gauge("fanout"),
				spliced:   sc.Counter("spliced"),
				replayed:  sc.Counter("replayed"),
				reparents: sc.Counter("reparents"),
			},
		}
		n.splices[r.ID()] = sp
	}
	n.mu.Unlock()
	sp.attachIngest(r)
	return sp
}

// Splice returns the splice built on the given ingest VC.
func (n *Node) Splice(vc core.VCID) (*Splice, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	sp, ok := n.splices[vc]
	return sp, ok
}

// Splices returns every splice on the node.
func (n *Node) Splices() []*Splice {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Splice, 0, len(n.splices))
	for _, sp := range n.splices {
		out = append(out, sp)
	}
	return out
}

// spliceInstr holds a splice's registry instruments; all nil when metrics
// are disabled.
type spliceInstr struct {
	fanout    *stats.Gauge   // current egress count
	spliced   *stats.Counter // OSDUs accepted by the tap (once per OSDU, not per egress)
	replayed  *stats.Counter // OSDUs replayed out-of-band to a joining/adopted egress
	reparents *stats.Counter // leaves adopted from a failed parent
}

// Splice fans one ingest VC out onto N egress VCs.
type Splice struct {
	n  *Node
	id core.VCID
	rt *cbuf.Retainer
	si spliceInstr

	// Local tallies behind the registry mirrors, so LastReport is
	// meaningful when metrics are disabled.
	nSpliced  atomic.Uint64
	nReplayed atomic.Uint64

	mu   sync.Mutex
	in   *transport.RecvVC
	head core.OSDUSeq // one past the highest OSDU kept (the splice delivery watermark)
	eggs []*egress
}

// egress is one downstream VC and its publication cursor.
type egress struct {
	vc *transport.SendVC
	// next is the lowest sequence still owed to this egress; the tap
	// skips anything below it, making fan-out retries idempotent per
	// egress (a ring-full refusal on one egress must not duplicate the
	// OSDU on the egresses that already took it).
	next core.OSDUSeq
	// paused parks the egress during out-of-band catch-up replay (join or
	// adoption); the tap ignores it until the replay reaches the head.
	paused bool
}

// ID returns the ingest VC identifier the splice is keyed by.
func (sp *Splice) ID() core.VCID { return sp.id }

// Ingest returns the splice's current ingest VC.
func (sp *Splice) Ingest() *transport.RecvVC {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.in
}

// Head returns the splice's delivery watermark: one past the highest OSDU
// accepted from the ingest.
func (sp *Splice) Head() core.OSDUSeq {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.head
}

// Fanout returns the current egress count.
func (sp *Splice) Fanout() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return len(sp.eggs)
}

// attachIngest points the splice at a (possibly successor) ingest VC and
// installs the delivery tap. On reattach after an upstream resume, every
// egress is parked and caught up from its own cursor, because the tap
// installation may drain ring-buffered OSDUs that predate it.
func (sp *Splice) attachIngest(r *transport.RecvVC) {
	sp.mu.Lock()
	sp.in = r
	eggs := make([]*egress, len(sp.eggs))
	copy(eggs, sp.eggs)
	for _, eg := range eggs {
		eg.paused = true
	}
	sp.mu.Unlock()
	r.SetDeliveryTap(sp.tap)
	for _, eg := range eggs {
		// Cursor-preserving catch-up: usually empty, it just unparks.
		_ = sp.catchUp(eg, eg.next)
	}
}

// tap is the transport delivery tap: it runs on the ingest VC's owning
// shard with the OSDU's payload on loan until it returns, copies the OSDU
// into the retainer for later adopters, and fans it out (each egress ring
// takes its own copy). Returning false leaves the OSDU in the
// ingest's reorder stage and backpressures the upstream; the transport
// retries every RTO, and the per-egress cursor keeps the retry idempotent.
func (sp *Splice) tap(u cbuf.OSDU) bool {
	sp.mu.Lock()
	if u.Seq >= sp.head {
		// Keep exactly once, even across blocked-fanout retries.
		sp.rt.Keep(u)
		sp.head = u.Seq + 1
	}
	ok := true
	live := sp.eggs[:0]
	for _, eg := range sp.eggs {
		if eg.paused {
			live = append(live, eg)
			continue
		}
		if u.Seq >= eg.next {
			sent, err := eg.vc.TryPublish(u)
			if err != nil {
				// Egress torn down (leaf disconnected or died): reap it.
				continue
			}
			if !sent {
				ok = false
				live = append(live, eg)
				continue
			}
			eg.next = u.Seq + 1
		}
		live = append(live, eg)
	}
	reaped := len(sp.eggs) != len(live)
	sp.eggs = live
	if reaped {
		sp.si.fanout.Set(float64(len(live)))
	}
	sp.mu.Unlock()
	if ok {
		sp.nSpliced.Add(1)
		sp.si.spliced.Inc()
	}
	return ok
}

// AddSink connects a new leaf to this relay, joining the stream at the
// current splice head. The egress contract is derived from the upstream
// contract (same class, profile and throughput; a subtree can never
// promise more than its feed). srcTSAP names the relay-side TSAP the
// egress VC originates from.
func (sp *Splice) AddSink(srcTSAP core.TSAP, dest core.Addr) (*transport.SendVC, error) {
	in := sp.Ingest()
	if in == nil {
		return nil, fmt.Errorf("relay: splice %v has no ingest", sp.id)
	}
	sp.mu.Lock()
	start := sp.head
	sp.mu.Unlock()
	vc, err := sp.n.e.Connect(transport.ConnectRequest{
		SrcTSAP:  srcTSAP,
		Dest:     dest,
		Profile:  in.Profile(),
		Class:    in.Class(),
		Spec:     subtreeSpec(in.Contract()),
		StartSeq: start,
	})
	if err != nil {
		return nil, err
	}
	if err := sp.adoptEgress(vc, start); err != nil {
		_ = vc.Close(core.ReasonUserRejected)
		return nil, err
	}
	return vc, nil
}

// Adopt re-parents a leaf whose previous parent died onto this relay: it
// resumes the leaf's old VC (same VCID, new source host), replays the
// retained gap between the leaf's delivery watermark and the splice head,
// and joins the egress to the live tap. It returns the watermark the leaf
// resumed from. Adoption fails — with the leaf's continuity intact, so
// another parent can still try — when the leaf rejects the resume or the
// required history has aged out of this splice's retainer.
func (sp *Splice) Adopt(vc core.VCID, leaf core.Addr, srcTSAP core.TSAP) (core.OSDUSeq, error) {
	in := sp.Ingest()
	if in == nil {
		return 0, fmt.Errorf("relay: splice %v has no ingest", sp.id)
	}
	sp.mu.Lock()
	head := sp.head
	sp.mu.Unlock()
	self := core.Addr{Host: sp.n.e.Host(), TSAP: srcTSAP}
	svc, resumeFrom, err := sp.n.e.Resume(transport.ResumeRequest{
		VC:      vc,
		Tuple:   core.ConnectTuple{Initiator: self, Source: self, Dest: leaf},
		Profile: in.Profile(),
		Class:   in.Class(),
		Spec:    subtreeSpec(in.Contract()),
		// The successor's own numbering starts at the splice head; the
		// gap [resumeFrom, head) comes out of the retainer below. TPDU
		// numbering restarts — the resumed sink adopts the baseline.
		NextSeq: head,
	})
	if err != nil {
		return 0, err
	}
	if err := sp.adoptEgress(svc, resumeFrom); err != nil {
		_ = svc.Close(core.ReasonNoResources)
		return 0, err
	}
	sp.si.reparents.Inc()
	return resumeFrom, nil
}

// adoptEgress registers a new egress parked, then catches it up from the
// given sequence and hands it to the tap.
func (sp *Splice) adoptEgress(vc *transport.SendVC, from core.OSDUSeq) error {
	eg := &egress{vc: vc, next: from, paused: true}
	sp.mu.Lock()
	sp.eggs = append(sp.eggs, eg)
	sp.si.fanout.Set(float64(len(sp.eggs)))
	sp.mu.Unlock()
	if err := sp.catchUp(eg, from); err != nil {
		sp.dropEgress(eg)
		return err
	}
	return nil
}

// catchUp replays retained OSDUs [from, head) into a parked egress, then
// atomically unparks it at the head so the tap takes over with no gap and
// no overlap. Blocking Publish is safe here: the tap never blocks and
// never waits on this goroutine.
func (sp *Splice) catchUp(eg *egress, from core.OSDUSeq) error {
	seq := from
	for {
		sp.mu.Lock()
		if seq >= sp.head {
			eg.next = seq
			eg.paused = false
			sp.mu.Unlock()
			break
		}
		sp.mu.Unlock()
		out, missed := sp.rt.ReplayFrom(seq)
		if missed > 0 || len(out) == 0 {
			return fmt.Errorf("relay: splice %v history starts after %d (%d OSDUs aged out)",
				sp.id, seq, missed)
		}
		for _, u := range out {
			if err := eg.vc.Publish(u); err != nil {
				return err
			}
			sp.nReplayed.Add(1)
			sp.si.replayed.Inc()
			seq = u.Seq + 1
		}
	}
	// The upstream may be parked on our backpressure; poke it now that a
	// consumer made progress.
	if in := sp.Ingest(); in != nil {
		in.Nudge()
	}
	return nil
}

// dropEgress removes one egress from the fan-out set.
func (sp *Splice) dropEgress(eg *egress) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i, cur := range sp.eggs {
		if cur == eg {
			sp.eggs = append(sp.eggs[:i], sp.eggs[i+1:]...)
			sp.si.fanout.Set(float64(len(sp.eggs)))
			return
		}
	}
}

// RemoveSink closes and drops the egress VC with the given ID.
func (sp *Splice) RemoveSink(vc core.VCID, reason core.Reason) {
	sp.mu.Lock()
	var victim *egress
	for _, eg := range sp.eggs {
		if eg.vc.ID() == vc {
			victim = eg
			break
		}
	}
	sp.mu.Unlock()
	if victim != nil {
		_ = victim.vc.Close(reason)
		sp.dropEgress(victim)
	}
}

// Egresses returns the current egress VCs.
func (sp *Splice) Egresses() []*transport.SendVC {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]*transport.SendVC, 0, len(sp.eggs))
	for _, eg := range sp.eggs {
		out = append(out, eg.vc)
	}
	return out
}

// Report aggregates the splice's per-interval view for the orchestration
// layer: the ingest's measured QoS plus the subtree's publication state.
type Report struct {
	Ingest   qos.Report
	Head     core.OSDUSeq
	Fanout   int
	Spliced  uint64
	Replayed uint64
	// MinSentSeq is the slowest egress's transmit watermark — how far the
	// least-caught-up subtree edge has progressed.
	MinSentSeq core.OSDUSeq
}

// LastReport returns the splice's current aggregate.
func (sp *Splice) LastReport() Report {
	sp.mu.Lock()
	in := sp.in
	rep := Report{
		Head:     sp.head,
		Fanout:   len(sp.eggs),
		Spliced:  sp.nSpliced.Load(),
		Replayed: sp.nReplayed.Load(),
	}
	rep.MinSentSeq = sp.head
	for _, eg := range sp.eggs {
		if s := eg.vc.SentSeq(); s < rep.MinSentSeq {
			rep.MinSentSeq = s
		}
	}
	sp.mu.Unlock()
	if in != nil {
		rep.Ingest = in.LastReport()
	}
	return rep
}

// subtreeSpec derives the QoS spec for a downstream hop from the upstream
// contract: the subtree asks for the feed's throughput (degradable to a
// tenth) and tolerates bounds no tighter than what the upstream already
// promised, with generous ceilings where the contract pinned zero.
func subtreeSpec(c qos.Contract) qos.Spec {
	ceil := func(v, floor float64) qos.CeilTolerance {
		if v < floor {
			v = floor
		}
		return qos.CeilTolerance{Preferred: 0, Acceptable: v}
	}
	return qos.Spec{
		Throughput:  qos.Tolerance{Preferred: c.Throughput, Acceptable: c.Throughput / 10},
		MaxOSDUSize: c.MaxOSDUSize,
		Delay:       ceil(c.Delay.Seconds(), 0.5),
		Jitter:      ceil(c.Jitter.Seconds(), 0.5),
		PER:         ceil(c.PER, 0.5),
		BER:         ceil(c.BER, 1e-2),
		Guarantee:   c.Guarantee,
	}
}
