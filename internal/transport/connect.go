package transport

import (
	"fmt"

	"cmtos/internal/core"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// Connect performs T-Connect.request for the conventional case where the
// caller's host is the source (initiator == source). It runs the full
// confirmed exchange of Table 1: admission along the route, option
// negotiation with the destination user, and reservation of the agreed
// bandwidth. On success the returned SendVC is ready for Write.
func (e *Entity) Connect(req ConnectRequest) (*SendVC, error) {
	tup := core.ConnectTuple{
		Initiator: core.Addr{Host: e.host, TSAP: req.SrcTSAP},
		Source:    core.Addr{Host: e.host, TSAP: req.SrcTSAP},
		Dest:      req.Dest,
	}
	e.trace("initiator", core.TConnectRequest)
	s, err := e.connectAsSource(tup, req.Profile, req.Class, req.Spec, req.StartSeq)
	if err != nil {
		e.trace("initiator", core.TDisconnectIndication)
		return nil, err
	}
	e.trace("initiator", core.TConnectConfirm)
	return s, nil
}

// connectAsSource runs establishment from the source entity: negotiate
// against the path, reserve, and complete the CR/CC exchange with the
// destination.
func (e *Entity) connectAsSource(tup core.ConnectTuple, profile qos.Profile, class qos.Class, spec qos.Spec, startSeq core.OSDUSeq) (*SendVC, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	pc, err := e.capabilityFor(tup.Source.Host, tup.Dest.Host, spec)
	if err != nil {
		return nil, &RejectError{Reason: core.ReasonNoSuchTSAP, Detail: err.Error()}
	}
	contract, err := qos.Negotiate(spec, pc)
	if err != nil {
		return nil, &RejectError{Reason: core.ReasonQoSUnattainable, Detail: err.Error()}
	}

	// Reserve along the path (hard and soft guarantees reserve; best
	// effort does not).
	var resvID resv.ID
	var path []core.HostID
	if contract.Guarantee != qos.BestEffort {
		id, p, err := e.rm.Reserve(tup.Source.Host, tup.Dest.Host, e.bytesPerSecond(contract))
		if err != nil {
			return nil, &RejectError{Reason: core.ReasonNoResources, Detail: err.Error()}
		}
		resvID, path = id, p
	}
	release := func() {
		if resvID != 0 {
			_ = e.rm.Release(resvID)
		}
	}

	vc := e.allocVC()
	reply, err := e.request(tup.Dest.Host, &pdu.Control{
		Kind: pdu.KindConnReq, VC: vc, Tuple: tup,
		Profile: profile, Class: class, Spec: spec, Contract: contract,
		Seq: uint64(startSeq),
	})
	if err != nil {
		release()
		return nil, err
	}
	if reply.Kind == pdu.KindConnRej {
		release()
		return nil, &RejectError{Reason: reply.Reason}
	}
	final := reply.Contract

	// The responder may have weakened the offer; shrink the reservation
	// to the final contract.
	if resvID != 0 && final.Throughput < contract.Throughput {
		_ = e.rm.Adjust(resvID, e.bytesPerSecond(final))
	}

	s := newSendVC(e, vc, tup, profile, class, final, resvID)
	s.path = path
	if startSeq > 0 {
		// Mid-stream join: numbering starts at the splice head, and the
		// transmit watermark must not look behind it.
		s.nextSeq = startSeq
		s.sentSeq.Store(uint64(startSeq))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		s.teardown()
		release()
		return nil, ErrClosed
	}
	e.sends[vc] = s
	e.peerAddLocked(s.tuple.Dest.Host, vc)
	e.mu.Unlock()
	s.start()

	if u, ok := e.user(tup.Source.TSAP); ok && u.OnSendReady != nil {
		u.OnSendReady(s)
	}
	return s, nil
}

// handleConnReq is the destination entity's side of establishment: issue
// T-Connect.indication to the addressed TSAP's user, counter-negotiate,
// install the receive side, and confirm or reject.
func (e *Entity) handleConnReq(from core.HostID, c *pdu.Control) {
	rej := func(reason core.Reason) {
		e.reply(from, &pdu.Control{
			Kind: pdu.KindConnRej, VC: c.VC, Tuple: c.Tuple,
			Reason: reason, Token: c.Token,
		})
	}
	u, ok := e.user(c.Tuple.Dest.TSAP)
	if !ok {
		rej(core.ReasonNoSuchTSAP)
		return
	}
	e.trace("dest", core.TConnectIndication)
	final := c.Contract
	if u.OnConnectIndication != nil {
		accept, responder := u.OnConnectIndication(c.Tuple, RoleSink, c.Spec)
		if !accept {
			e.trace("dest", core.TDisconnectRequest)
			rej(core.ReasonUserRejected)
			return
		}
		if responder.MaxOSDUSize > 0 { // a zero responder spec means "as offered"
			weakened, err := qos.Weaken(c.Contract, responder)
			if err != nil {
				rej(core.ReasonQoSUnattainable)
				return
			}
			final = weakened
		}
	}
	e.trace("dest", core.TConnectResponse)

	r := newRecvVC(e, c.VC, c.Tuple, c.Profile, c.Class, final)
	if c.Seq > 0 {
		r.initStart(core.OSDUSeq(c.Seq))
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		r.teardown()
		rej(core.ReasonNetworkFailure)
		return
	}
	if existing, dup := e.recvs[c.VC]; dup {
		// Retransmitted CR: the VC already exists; re-confirm
		// idempotently with the contract in force.
		e.mu.Unlock()
		r.teardown()
		e.reply(from, &pdu.Control{
			Kind: pdu.KindConnConf, VC: c.VC, Tuple: c.Tuple,
			Contract: existing.Contract(), Token: c.Token,
		})
		return
	}
	e.recvs[c.VC] = r
	e.peerAddLocked(r.tuple.Source.Host, c.VC)
	e.mu.Unlock()
	r.start()

	e.reply(from, &pdu.Control{
		Kind: pdu.KindConnConf, VC: c.VC, Tuple: c.Tuple, Contract: final,
		Token: c.Token,
	})
	if u.OnRecvReady != nil {
		u.OnRecvReady(r)
	}
}

// ConnectRemote performs the remote connection facility of §3.5 and Figs.
// 2-3: the caller (initiator) asks the source entity to establish a VC
// from tup.Source to tup.Dest. The exchange follows Fig. 3 exactly; the
// initiator receives only the outcome — the data handles surface at the
// source and sink through OnSendReady/OnRecvReady.
func (e *Entity) ConnectRemote(tup core.ConnectTuple, profile qos.Profile, class qos.Class, spec qos.Spec) (core.VCID, qos.Contract, error) {
	if tup.Initiator.Host != e.host {
		return 0, qos.Contract{}, fmt.Errorf("transport: initiator %v is not this host", tup.Initiator)
	}
	if err := spec.Validate(); err != nil {
		return 0, qos.Contract{}, err
	}
	e.trace("initiator", core.TConnectRequest)
	reply, err := e.request(tup.Source.Host, &pdu.Control{
		Kind: pdu.KindRemoteConnReq, Tuple: tup,
		Profile: profile, Class: class, Spec: spec,
	})
	if err != nil {
		return 0, qos.Contract{}, err
	}
	if reply.Reason != core.ReasonNone {
		e.trace("initiator", core.TDisconnectIndication)
		return 0, qos.Contract{}, &RejectError{Reason: reply.Reason}
	}
	e.trace("initiator", core.TConnectConfirm)
	return reply.VC, reply.Contract, nil
}

// handleRemoteConnReq is the source entity's side of a remote connect:
// deliver T-Connect.indication to the source TSAP's user, then (on
// acceptance) run conventional establishment toward the destination and
// relay the outcome to the initiator.
func (e *Entity) handleRemoteConnReq(from core.HostID, c *pdu.Control) {
	key := servedKey{host: from, tok: c.Token}
	if cached, dup := e.servedBegin(key); dup {
		if cached != nil {
			e.reply(from, cached) // retransmitted request: replay result
		}
		return
	}
	result := func(vc core.VCID, contract qos.Contract, reason core.Reason) {
		res := &pdu.Control{
			Kind: pdu.KindRemoteConnResult, VC: vc, Tuple: c.Tuple,
			Contract: contract, Reason: reason, Token: c.Token,
		}
		e.servedPut(key, res)
		e.reply(from, res)
	}
	u, ok := e.user(c.Tuple.Source.TSAP)
	if !ok {
		result(0, qos.Contract{}, core.ReasonNoSuchTSAP)
		return
	}
	e.trace("source", core.TConnectIndication)
	spec := c.Spec
	if u.OnConnectIndication != nil {
		accept, responder := u.OnConnectIndication(c.Tuple, RoleSource, c.Spec)
		if !accept {
			e.trace("source", core.TDisconnectRequest)
			result(0, qos.Contract{}, core.ReasonUserRejected)
			return
		}
		if responder.MaxOSDUSize > 0 {
			spec = responder
		}
	}
	e.trace("source", core.TConnectResponse)
	e.trace("source", core.TConnectRequest)
	s, err := e.connectAsSource(c.Tuple, c.Profile, c.Class, spec, 0)
	if err != nil {
		reason := core.ReasonNetworkFailure
		if rej, ok := err.(*RejectError); ok {
			reason = rej.Reason
		}
		result(0, qos.Contract{}, reason)
		return
	}
	e.trace("source", core.TConnectConfirm)
	result(s.ID(), s.Contract(), core.ReasonNone)
}

// Disconnect releases a VC owned (as source) by this host, notifying the
// sink. It implements T-Disconnect.request (Table 1).
func (e *Entity) Disconnect(vc core.VCID, reason core.Reason) error {
	s, ok := e.SourceVC(vc)
	if !ok {
		return &RejectError{Reason: core.ReasonNoSuchVC}
	}
	e.trace("source", core.TDisconnectRequest)
	s.teardown()
	for _, dst := range s.members {
		e.sendCtl(dst, &pdu.Control{
			Kind: pdu.KindDiscReq, VC: vc, Tuple: s.tuple, Reason: reason,
		})
	}
	return nil
}

// DisconnectRemote asks the VC's source entity to release it — the remote
// release of §4.1.1 ("it is also possible for an initiator to request
// that a VC be remotely released").
func (e *Entity) DisconnectRemote(srcHost core.HostID, vc core.VCID, reason core.Reason) error {
	e.trace("initiator", core.TDisconnectRequest)
	e.sendCtl(srcHost, &pdu.Control{
		Kind: pdu.KindRemoteDiscReq, VC: vc, Reason: reason,
	})
	return nil
}

// handleRemoteDiscReq is the source entity's side of a remote release.
func (e *Entity) handleRemoteDiscReq(c *pdu.Control) {
	if _, ok := e.SourceVC(c.VC); !ok {
		return
	}
	e.trace("source", core.TDisconnectIndication)
	reason := c.Reason
	if reason == core.ReasonNone {
		reason = core.ReasonUserInitiated
	}
	_ = e.Disconnect(c.VC, reason)
}
