package hlo

import (
	"fmt"
	"sort"
	"sync"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/relay"
	"cmtos/internal/resv"
	"cmtos/internal/session"
)

// TreeAgent is the HLO's distribution-tree controller for ONE source
// stream: it places sinks on the nearest non-saturated relay (resv.Tree's
// aggregated admission, so the source uplink is only ever charged for its
// direct children), aggregates each relay's per-interval splice report up
// the tree, and repairs the tree when a relay dies — every orphaned
// subtree member is re-parented onto a surviving relay through the session
// layer's Reparenter, which drives the relay's Adopt (resume the old VC,
// replay the retained gap) so no accepted OSDU is lost or duplicated.
//
// A subtree member may itself be a relay: adopting a mid-tree relay's
// ingest VC re-homes its whole subtree in one exchange, because the
// surviving splice keeps its egress set across the resume.
type TreeAgent struct {
	clk  clock.Clock
	pol  TreePolicy
	tree *resv.Tree
	root core.HostID

	mu      sync.Mutex
	relays  map[core.HostID]relayEntry
	members map[core.VCID]*TreeMember
}

// relayEntry is one registered relay and how to reach its splice.
type relayEntry struct {
	node       *relay.Node
	ingest     core.VCID // splice key for this stream on that relay
	egressTSAP core.TSAP // relay-side TSAP its egress VCs originate from
}

// TreeMember is one attached subtree member below a relay — a leaf sink,
// or a deeper relay's ingest.
type TreeMember struct {
	// VC is the member's sink-side VC (the adoption identity).
	VC core.VCID
	// Parent is the relay currently feeding the member.
	Parent core.HostID
	// Addr is the member's sink attach point.
	Addr core.Addr
	// Rate is the downlink charge in bytes/sec used for admission.
	Rate float64
}

// TreePolicy tunes tree construction and repair.
type TreePolicy struct {
	// Reparent is handed to the session.Reparenter during repair.
	Reparent session.ReparentPolicy
	// Dist estimates a sink's distance to a candidate relay (hop count);
	// nil treats all relays as equidistant and picks by headroom.
	Dist func(sink core.HostID, relay core.HostID) int
	// OnAdopted fires after a subtree member is re-homed (repair path,
	// outside the agent's locks) — the hook where the orchestration
	// session re-admits the member's stream (llo.Add/PrimeVC/StartVC,
	// as Agent.readmit does for evicted hosts).
	OnAdopted func(vc core.VCID, newParent core.HostID, resumedFrom core.OSDUSeq)
	// OnAbandoned fires when repair gave up on a member.
	OnAbandoned func(vc core.VCID, err error)
}

// NewTreeAgent creates the controller with the given source (root) host.
// uplink bounds the source's downlink budget in bytes/sec (0 = unlimited).
func NewTreeAgent(clk clock.Clock, root core.HostID, uplink float64, pol TreePolicy) *TreeAgent {
	t := resv.NewTree()
	if uplink > 0 {
		t.SetBudget(resv.HostNode(root), uplink)
	}
	return &TreeAgent{
		clk:     clk,
		pol:     pol,
		tree:    t,
		root:    root,
		relays:  make(map[core.HostID]relayEntry),
		members: make(map[core.VCID]*TreeMember),
	}
}

// Tree exposes the admission tree (for tests and reporting).
func (ta *TreeAgent) Tree() *resv.Tree { return ta.tree }

// AddRelay registers one of the source's direct children: a relay node
// carrying the stream on the given ingest VC. rate is what the relay draws
// from the source's uplink; downlink bounds what the relay can feed its
// own children (0 = unlimited).
func (ta *TreeAgent) AddRelay(host core.HostID, node *relay.Node, ingest core.VCID, egressTSAP core.TSAP, rate, downlink float64) error {
	if downlink > 0 {
		ta.tree.SetBudget(resv.HostNode(host), downlink)
	}
	if err := ta.tree.Attach(resv.HostNode(host), resv.HostNode(ta.root), rate); err != nil {
		return err
	}
	ta.mu.Lock()
	ta.relays[host] = relayEntry{node: node, ingest: ingest, egressTSAP: egressTSAP}
	ta.mu.Unlock()
	return nil
}

// splice resolves a registered relay's splice for this stream.
func (ta *TreeAgent) splice(host core.HostID) (*relay.Splice, core.TSAP, error) {
	ta.mu.Lock()
	re, ok := ta.relays[host]
	ta.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("hlo: host %v is not a registered relay", host)
	}
	sp, ok := re.node.Splice(re.ingest)
	if !ok {
		return nil, 0, fmt.Errorf("hlo: relay %v has no splice for ingest %v", host, re.ingest)
	}
	return sp, re.egressTSAP, nil
}

// relayHosts lists live relays, sorted for determinism.
func (ta *TreeAgent) relayHosts() []core.HostID {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	out := make([]core.HostID, 0, len(ta.relays))
	for h := range ta.relays {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bestRelay picks the nearest non-saturated relay for a sink at the given
// host, by the policy's distance hint and the admission tree's headroom.
// Relays in the excluded set (found saturated by a racing placement) are
// skipped.
func (ta *TreeAgent) bestRelay(sink core.HostID, rate float64, excluded map[core.HostID]bool) (core.HostID, error) {
	hosts := ta.relayHosts()
	cands := make([]resv.NodeID, 0, len(hosts))
	for _, h := range hosts {
		if !excluded[h] {
			cands = append(cands, resv.HostNode(h))
		}
	}
	var dist func(resv.NodeID) int
	if ta.pol.Dist != nil {
		dist = func(n resv.NodeID) int { return ta.pol.Dist(sink, core.HostID(n)) }
	}
	best, err := ta.tree.Best(cands, rate, dist)
	if err != nil {
		return 0, err
	}
	return core.HostID(best), nil
}

// PlaceSink admits one new sink into the tree: the nearest non-saturated
// relay is chosen, charged, and told to splice a new egress VC to the
// sink, which joins the stream mid-flight at the splice head. It returns
// the chosen relay. Placement races resolve by falling back: when a
// concurrent placement saturates the chosen relay between the choice and
// the charge, the next-best relay is tried instead.
func (ta *TreeAgent) PlaceSink(sink core.Addr, rate float64) (core.HostID, error) {
	excluded := make(map[core.HostID]bool)
	for {
		parent, err := ta.bestRelay(sink.Host, rate, excluded)
		if err != nil {
			return 0, err
		}
		sp, egressTSAP, err := ta.splice(parent)
		if err != nil {
			return 0, err
		}
		vc, err := sp.AddSink(egressTSAP, sink)
		if err != nil {
			return 0, err
		}
		if err := ta.tree.Attach(resv.SinkNode(vc.ID()), resv.HostNode(parent), rate); err != nil {
			sp.RemoveSink(vc.ID(), core.ReasonNoResources)
			excluded[parent] = true
			continue
		}
		ta.mu.Lock()
		ta.members[vc.ID()] = &TreeMember{VC: vc.ID(), Parent: parent, Addr: sink, Rate: rate}
		ta.mu.Unlock()
		return parent, nil
	}
}

// Members returns the attached subtree members, sorted by VC.
func (ta *TreeAgent) Members() []TreeMember {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	out := make([]TreeMember, 0, len(ta.members))
	for _, m := range ta.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VC < out[j].VC })
	return out
}

// HostDown repairs the tree after a relay death: the dead relay leaves the
// admission tree (refunding the source's uplink), and every member it fed
// is re-parented — each onto its own nearest non-saturated survivor — via
// the session Reparenter driving the survivors' Adopt. Adopted members are
// re-charged under their new parent and reported through OnAdopted so the
// orchestration session can re-admit them; abandoned members are detached.
// It returns one terminal result per orphan.
func (ta *TreeAgent) HostDown(h core.HostID) []session.ReparentResult {
	ta.mu.Lock()
	delete(ta.relays, h)
	var orphans []*TreeMember
	for _, m := range ta.members {
		if m.Parent == h {
			orphans = append(orphans, m)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].VC < orphans[j].VC })
	ta.mu.Unlock()
	ta.tree.Remove(resv.HostNode(h)) // refund the uplink, orphan the children

	// Choose a survivor per member (budgets shift as members land, so the
	// choice is re-made per orphan), then adopt survivor by survivor.
	byParent := make(map[core.HostID][]*TreeMember)
	var order []core.HostID
	var results []session.ReparentResult
	for _, m := range orphans {
		parent, err := ta.bestRelay(m.Addr.Host, m.Rate, nil)
		if err != nil {
			results = append(results, ta.abandon(m, err))
			continue
		}
		// Pre-charge the new parent so the next orphan's placement sees
		// it; refunded below if adoption fails.
		if err := ta.tree.Attach(resv.SinkNode(m.VC), resv.HostNode(parent), m.Rate); err != nil {
			results = append(results, ta.abandon(m, err))
			continue
		}
		if len(byParent[parent]) == 0 {
			order = append(order, parent)
		}
		byParent[parent] = append(byParent[parent], m)
	}

	rp := session.NewReparenter(ta.clk, ta.pol.Reparent)
	for _, parent := range order {
		ms := byParent[parent]
		sp, egressTSAP, err := ta.splice(parent)
		if err != nil {
			for _, m := range ms {
				ta.tree.Detach(resv.SinkNode(m.VC))
				results = append(results, ta.abandon(m, err))
			}
			continue
		}
		orph := make([]session.Orphan, len(ms))
		for i, m := range ms {
			orph[i] = session.Orphan{VC: m.VC, Leaf: m.Addr, SrcTSAP: egressTSAP}
		}
		for i, res := range rp.Run(orph, sp) {
			m := ms[i]
			if res.State == session.ReparentAdopted {
				ta.mu.Lock()
				m.Parent = parent
				ta.mu.Unlock()
				if ta.pol.OnAdopted != nil {
					ta.pol.OnAdopted(m.VC, parent, res.ResumedFrom)
				}
			} else {
				ta.tree.Detach(resv.SinkNode(m.VC))
				ta.forget(m)
				if ta.pol.OnAbandoned != nil {
					ta.pol.OnAbandoned(m.VC, res.Err)
				}
			}
			results = append(results, res)
		}
	}
	return results
}

// abandon records a terminal failure for a member that never reached the
// Reparenter (no viable survivor, or admission refused).
func (ta *TreeAgent) abandon(m *TreeMember, err error) session.ReparentResult {
	ta.forget(m)
	if ta.pol.OnAbandoned != nil {
		ta.pol.OnAbandoned(m.VC, err)
	}
	return session.ReparentResult{
		Orphan: session.Orphan{VC: m.VC, Leaf: m.Addr},
		State:  session.ReparentAbandoned,
		Err:    err,
	}
}

func (ta *TreeAgent) forget(m *TreeMember) {
	ta.mu.Lock()
	delete(ta.members, m.VC)
	ta.mu.Unlock()
}

// RelayReport is one relay's per-interval aggregate rolled up the tree:
// its splice's data-plane view plus the admission tree's subtree shape.
type RelayReport struct {
	Host    core.HostID
	Subtree int     // nodes below this relay
	Rate    float64 // bytes/sec its direct children draw
	Splice  relay.Report
}

// Report aggregates every relay's interval view, sorted by host — the
// tree-wide roll-up the orchestrating node consumes instead of N per-leaf
// reports.
func (ta *TreeAgent) Report() []RelayReport {
	hosts := ta.relayHosts()
	out := make([]RelayReport, 0, len(hosts))
	for _, h := range hosts {
		rr := RelayReport{
			Host:    h,
			Subtree: ta.tree.SubtreeSize(resv.HostNode(h)),
			Rate:    ta.tree.AggregateRate(resv.HostNode(h)),
		}
		if sp, _, err := ta.splice(h); err == nil {
			rr.Splice = sp.LastReport()
		}
		out = append(out, rr)
	}
	return out
}

// SourceFanout returns how many VCs the source's own uplink carries —
// the tree invariant under test: direct children only, regardless of how
// many sinks sit behind the relays.
func (ta *TreeAgent) SourceFanout() int { return ta.tree.Fanout(resv.HostNode(ta.root)) }
