package transport

import (
	"fmt"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// ConnectMulticast establishes the simple 1:N CM topology of §3.8: one
// send VC whose data TPDUs fan out to every destination as one unicast
// packet per member, all under the VC's id. Each destination runs the normal confirmed establishment
// (T-Connect.indication at its user, counter-negotiation), and the final
// contract is the weakest the group can sustain, so the connections
// "maintain a compatible temporal transmission rate".
//
// Restrictions (the paper defers multicast refinement to future work, §7):
// the profile must be the CM rate-based one and the class must not be
// error-correcting (retransmission to a group needs per-member state this
// transport does not keep). Flow control is slowest-member: any sink's
// XOFF holds the source, and the lease machinery resolves the resulting
// contention.
func (e *Entity) ConnectMulticast(req ConnectRequest, dests []core.Addr) (*SendVC, error) {
	if len(dests) == 0 {
		return nil, fmt.Errorf("transport: multicast needs at least one destination")
	}
	if req.Profile != qos.ProfileCMRate {
		return nil, fmt.Errorf("transport: multicast requires the cm-rate profile")
	}
	if req.Class.Corrects() {
		return nil, fmt.Errorf("transport: multicast cannot use a correcting class")
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	e.trace("initiator", core.TConnectRequest)

	// Negotiate against the weakest path.
	contract := qos.Contract{}
	for i, d := range dests {
		pc, err := e.capabilityFor(e.host, d.Host, req.Spec)
		if err != nil {
			return nil, &RejectError{Reason: core.ReasonNoSuchTSAP, Detail: err.Error()}
		}
		c, err := qos.Negotiate(req.Spec, pc)
		if err != nil {
			return nil, &RejectError{Reason: core.ReasonQoSUnattainable, Detail: err.Error()}
		}
		if i == 0 || c.Throughput < contract.Throughput {
			contract.Throughput = c.Throughput
		}
		if c.Delay > contract.Delay {
			contract.Delay = c.Delay
		}
		if c.Jitter > contract.Jitter {
			contract.Jitter = c.Jitter
		}
		if c.PER > contract.PER {
			contract.PER = c.PER
		}
		if c.BER > contract.BER {
			contract.BER = c.BER
		}
	}
	contract.MaxOSDUSize = req.Spec.MaxOSDUSize
	contract.Guarantee = req.Spec.Guarantee

	// Reserve every branch; roll back on failure.
	var resvIDs []resv.ID
	release := func() {
		for _, id := range resvIDs {
			_ = e.rm.Release(id)
		}
	}
	if contract.Guarantee != qos.BestEffort {
		for _, d := range dests {
			id, _, err := e.rm.Reserve(e.host, d.Host, e.bytesPerSecond(contract))
			if err != nil {
				release()
				return nil, &RejectError{Reason: core.ReasonNoResources, Detail: err.Error()}
			}
			resvIDs = append(resvIDs, id)
		}
	}

	// Confirmed establishment with every member under one VC id. The
	// final contract is weakened further by any member's counter-offer.
	vc := e.allocVC()
	src := core.Addr{Host: e.host, TSAP: req.SrcTSAP}
	for _, d := range dests {
		tup := core.ConnectTuple{Initiator: src, Source: src, Dest: d}
		reply, err := e.request(d.Host, &pdu.Control{
			Kind: pdu.KindConnReq, VC: vc, Tuple: tup,
			Profile: req.Profile, Class: req.Class,
			Spec: req.Spec, Contract: contract,
		})
		if err != nil {
			release()
			return nil, err
		}
		if reply.Kind == pdu.KindConnRej {
			release()
			return nil, &RejectError{Reason: reply.Reason}
		}
		if reply.Contract.Throughput < contract.Throughput {
			contract.Throughput = reply.Contract.Throughput
		}
	}

	// The send side has no single destination (a zero Dest, so no peer
	// index entry either): it sends to each member.
	tup := core.ConnectTuple{Initiator: src, Source: src}
	s := newSendVC(e, vc, tup, req.Profile, req.Class, contract, 0)
	s.resvExtra = resvIDs
	s.members = make([]core.HostID, len(dests))
	for i, d := range dests {
		s.members[i] = d.Host
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.teardown()
		release()
		return nil, ErrClosed
	}
	e.sends[vc] = s
	e.mu.Unlock()
	s.start()
	e.trace("initiator", core.TConnectConfirm)
	if u, ok := e.user(req.SrcTSAP); ok && u.OnSendReady != nil {
		u.OnSendReady(s)
	}
	return s, nil
}
