package transport

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/netif/faultnet"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

var sys clock.System

// rig is a small emulated network with one transport entity per host.
type rig struct {
	net *netem.Network
	rm  *resv.Manager
	ent map[core.HostID]*Entity
}

// newRig builds a full mesh of n hosts with the given link config and an
// entity (with cfg) on each.
func newRig(t *testing.T, n int, link netem.LinkConfig, cfg Config) *rig {
	t.Helper()
	return newRigVia(t, n, link, cfg, nil)
}

// newRigVia is newRig with every entity sending through via(mesh) — a
// fault injector or a recording wrapper; nil means the mesh itself.
func newRigVia(t *testing.T, n int, link netem.LinkConfig, cfg Config, via func(netif.Network) netif.Network) *rig {
	t.Helper()
	nw := netem.New(sys)
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		if err := nw.AddHost(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for a := core.HostID(1); a <= core.HostID(n); a++ {
		for b := a + 1; b <= core.HostID(n); b++ {
			if err := nw.AddLink(a, b, link); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	var sub netif.Network = nw
	if via != nil {
		sub = via(nw)
	}
	rm := resv.New(nw)
	r := &rig{net: nw, rm: rm, ent: make(map[core.HostID]*Entity)}
	for id := core.HostID(1); id <= core.HostID(n); id++ {
		e, err := NewEntity(id, sys, sub, rm, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		r.ent[id] = e
	}
	return r
}

func fastLink() netem.LinkConfig {
	return netem.LinkConfig{Bandwidth: 50e6, Delay: 200 * time.Microsecond, QueueLen: 4096}
}

// cmSpec is a forgiving CM spec used unless a test needs specific limits.
func cmSpec() qos.Spec {
	return qos.Spec{
		Throughput:  qos.Tolerance{Preferred: 200, Acceptable: 10},
		MaxOSDUSize: 2048,
		Delay:       qos.CeilTolerance{Preferred: 0.001, Acceptable: 0.5},
		Jitter:      qos.CeilTolerance{Preferred: 0.001, Acceptable: 0.5},
		PER:         qos.CeilTolerance{Preferred: 0, Acceptable: 0.5},
		BER:         qos.CeilTolerance{Preferred: 0, Acceptable: 1e-3},
		Guarantee:   qos.Soft,
	}
}

// connectPair attaches a sink user at h2/tsap 20, connects from h1/tsap 10
// and returns both VC halves.
func connectPair(t *testing.T, r *rig, class qos.Class, profile qos.Profile, spec qos.Spec) (*SendVC, *RecvVC) {
	t.Helper()
	recvCh := make(chan *RecvVC, 1)
	if err := r.ent[2].Attach(20, UserCallbacks{
		OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
	}); err != nil {
		t.Fatal(err)
	}
	s, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10,
		Dest:    core.Addr{Host: 2, TSAP: 20},
		Profile: profile,
		Class:   class,
		Spec:    spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case rv := <-recvCh:
		return s, rv
	case <-time.After(2 * time.Second):
		t.Fatal("OnRecvReady never fired")
		return nil, nil
	}
}

func TestConnectAndTransfer(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	const n = 20
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("osdu-%03d", i)), 0); err != nil {
				t.Errorf("Write %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		u, err := rv.Read()
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if u.Seq != core.OSDUSeq(i) {
			t.Fatalf("seq = %d, want %d", u.Seq, i)
		}
		if want := fmt.Sprintf("osdu-%03d", i); string(u.Payload) != want {
			t.Fatalf("payload = %q, want %q", u.Payload, want)
		}
	}
	if s.Written() != n {
		t.Errorf("Written = %d", s.Written())
	}
	if rv.Delivered() != n {
		t.Errorf("Delivered = %d", rv.Delivered())
	}
}

func TestContractGrantsPreferredOnFastPath(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	if got := s.Contract().Throughput; got != 200 {
		t.Errorf("source contract throughput = %g, want preferred 200", got)
	}
	if got := rv.Contract().Throughput; got != 200 {
		t.Errorf("sink contract throughput = %g, want 200", got)
	}
	if s.Contract().Guarantee != qos.Soft {
		t.Errorf("guarantee = %v", s.Contract().Guarantee)
	}
	// Soft guarantee must have reserved bandwidth.
	if r.rm.Count() != 1 {
		t.Errorf("reservations = %d, want 1", r.rm.Count())
	}
}

func TestConnectRejectedByUser(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	_ = r.ent[2].Attach(20, UserCallbacks{
		OnConnectIndication: func(core.ConnectTuple, Role, qos.Spec) (bool, qos.Spec) {
			return false, qos.Spec{}
		},
	})
	_, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonUserRejected {
		t.Fatalf("err = %v, want user-rejected", err)
	}
	// The failed connect must not leak a reservation.
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked: %d", r.rm.Count())
	}
}

func TestConnectToUnattachedTSAP(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	_, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 99},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonNoSuchTSAP {
		t.Fatalf("err = %v, want no-such-tsap", err)
	}
}

func TestConnectQoSUnattainable(t *testing.T) {
	// 100 KB/s link cannot carry 200 OSDU/s × 64 KiB.
	link := netem.LinkConfig{Bandwidth: 100e3, Delay: time.Millisecond}
	r := newRig(t, 2, link, Config{})
	_ = r.ent[2].Attach(20, UserCallbacks{})
	spec := cmSpec()
	spec.MaxOSDUSize = 64 * 1024
	spec.Throughput = qos.Tolerance{Preferred: 200, Acceptable: 100}
	_, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: spec,
	})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonQoSUnattainable {
		t.Fatalf("err = %v, want qos-unattainable", err)
	}
}

func TestConnectAdmissionControl(t *testing.T) {
	// The link can carry one 50 OSDU/s × 1 KiB flow but not three.
	link := netem.LinkConfig{Bandwidth: 120e3, Delay: time.Millisecond}
	r := newRig(t, 2, link, Config{})
	_ = r.ent[2].Attach(20, UserCallbacks{})
	spec := cmSpec()
	spec.MaxOSDUSize = 1024
	spec.Throughput = qos.Tolerance{Preferred: 50, Acceptable: 50} // rigid
	var granted int
	for i := 0; i < 3; i++ {
		_, err := r.ent[1].Connect(ConnectRequest{
			SrcTSAP: core.TSAP(10 + i), Dest: core.Addr{Host: 2, TSAP: 20},
			Class: qos.ClassDetectIndicate, Spec: spec,
		})
		if err == nil {
			granted++
		}
	}
	if granted == 0 || granted == 3 {
		t.Fatalf("granted %d of 3 rigid flows; want partial admission", granted)
	}
}

func TestResponderWeakensContract(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	resp := cmSpec()
	resp.Throughput = qos.Tolerance{Preferred: 50, Acceptable: 10}
	_ = r.ent[2].Attach(20, UserCallbacks{
		OnConnectIndication: func(core.ConnectTuple, Role, qos.Spec) (bool, qos.Spec) {
			return true, resp
		},
	})
	s, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Contract().Throughput; got != 50 {
		t.Fatalf("final throughput = %g, want responder-preferred 50", got)
	}
}

func TestRemoteConnectFig3(t *testing.T) {
	// Host 3 (initiator) connects TSAP A on host 1 to TSAP B on host 2
	// — the scenario of Figs. 2 and 3.
	r := newRig(t, 3, fastLink(), Config{})

	var mu sync.Mutex
	var trace core.Trace
	hook := func(at string, p core.Primitive) {
		mu.Lock()
		trace.Add(at, p)
		mu.Unlock()
	}
	for _, e := range r.ent {
		e.SetTrace(hook)
	}

	sendCh := make(chan *SendVC, 1)
	recvCh := make(chan *RecvVC, 1)
	_ = r.ent[1].Attach(10, UserCallbacks{OnSendReady: func(s *SendVC) { sendCh <- s }})
	_ = r.ent[2].Attach(20, UserCallbacks{OnRecvReady: func(rv *RecvVC) { recvCh <- rv }})

	tup := core.ConnectTuple{
		Initiator: core.Addr{Host: 3, TSAP: 30},
		Source:    core.Addr{Host: 1, TSAP: 10},
		Dest:      core.Addr{Host: 2, TSAP: 20},
	}
	vc, contract, err := r.ent[3].ConnectRemote(tup, qos.ProfileCMRate, qos.ClassDetectIndicate, cmSpec())
	if err != nil {
		t.Fatal(err)
	}
	if vc == 0 || contract.Throughput == 0 {
		t.Fatalf("vc=%v contract=%+v", vc, contract)
	}

	var s *SendVC
	var rv *RecvVC
	select {
	case s = <-sendCh:
	case <-time.After(2 * time.Second):
		t.Fatal("source never received its send handle")
	}
	select {
	case rv = <-recvCh:
	case <-time.After(2 * time.Second):
		t.Fatal("sink never received its recv handle")
	}
	if !s.Tuple().Remote() {
		t.Error("tuple should be remote")
	}

	// Data flows end to end on the remotely created VC.
	if _, err := s.Write([]byte("remote"), 0); err != nil {
		t.Fatal(err)
	}
	u, err := rv.Read()
	if err != nil || string(u.Payload) != "remote" {
		t.Fatalf("read %q/%v", u.Payload, err)
	}

	// The observed primitive sequence must follow Fig. 3.
	mu.Lock()
	got := trace.String()
	mu.Unlock()
	want := []core.TraceEvent{
		{At: "initiator", Primitive: core.TConnectRequest},
		{At: "source", Primitive: core.TConnectIndication},
		{At: "source", Primitive: core.TConnectResponse},
		{At: "source", Primitive: core.TConnectRequest},
		{At: "dest", Primitive: core.TConnectIndication},
		{At: "dest", Primitive: core.TConnectResponse},
		{At: "source", Primitive: core.TConnectConfirm},
		{At: "initiator", Primitive: core.TConnectConfirm},
	}
	mu.Lock()
	defer mu.Unlock()
	wi := 0
	for _, ev := range trace {
		if wi < len(want) && ev == want[wi] {
			wi++
		}
	}
	if wi != len(want) {
		t.Fatalf("Fig. 3 sequence not observed (matched %d/%d) in:\n%s", wi, len(want), got)
	}
}

func TestRemoteConnectRejectedBySource(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{})
	_ = r.ent[1].Attach(10, UserCallbacks{
		OnConnectIndication: func(core.ConnectTuple, Role, qos.Spec) (bool, qos.Spec) {
			return false, qos.Spec{}
		},
	})
	_ = r.ent[2].Attach(20, UserCallbacks{})
	tup := core.ConnectTuple{
		Initiator: core.Addr{Host: 3, TSAP: 30},
		Source:    core.Addr{Host: 1, TSAP: 10},
		Dest:      core.Addr{Host: 2, TSAP: 20},
	}
	_, _, err := r.ent[3].ConnectRemote(tup, qos.ProfileCMRate, qos.ClassDetectIndicate, cmSpec())
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonUserRejected {
		t.Fatalf("err = %v, want user-rejected", err)
	}
}

func TestRemoteConnectWrongInitiator(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{})
	tup := core.ConnectTuple{
		Initiator: core.Addr{Host: 1, TSAP: 30}, // not host 3
		Source:    core.Addr{Host: 1, TSAP: 10},
		Dest:      core.Addr{Host: 2, TSAP: 20},
	}
	if _, _, err := r.ent[3].ConnectRemote(tup, qos.ProfileCMRate, qos.ClassDetectIndicate, cmSpec()); err == nil {
		t.Fatal("ConnectRemote with foreign initiator succeeded")
	}
}

func TestDisconnectNotifiesSinkAndFreesResources(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	discCh := make(chan core.Reason, 1)
	recvCh := make(chan *RecvVC, 1)
	_ = r.ent[2].Attach(20, UserCallbacks{
		OnRecvReady:  func(rv *RecvVC) { recvCh <- rv },
		OnDisconnect: func(_ core.VCID, reason core.Reason, live bool) { discCh <- reason },
	})
	s, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	<-recvCh
	if err := s.Close(core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	select {
	case reason := <-discCh:
		if reason != core.ReasonUserInitiated {
			t.Fatalf("reason = %v", reason)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sink never saw T-Disconnect.indication")
	}
	if r.rm.Count() != 0 {
		t.Fatalf("reservation leaked after disconnect: %d", r.rm.Count())
	}
	if _, ok := r.ent[1].SourceVC(s.ID()); ok {
		t.Fatal("send VC still registered after disconnect")
	}
}

func TestRemoteDisconnect(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{})
	sendCh := make(chan *SendVC, 1)
	discCh := make(chan core.VCID, 1)
	_ = r.ent[1].Attach(10, UserCallbacks{OnSendReady: func(s *SendVC) { sendCh <- s }})
	_ = r.ent[2].Attach(20, UserCallbacks{
		OnDisconnect: func(vc core.VCID, _ core.Reason, _ bool) { discCh <- vc },
	})
	tup := core.ConnectTuple{
		Initiator: core.Addr{Host: 3, TSAP: 30},
		Source:    core.Addr{Host: 1, TSAP: 10},
		Dest:      core.Addr{Host: 2, TSAP: 20},
	}
	vc, _, err := r.ent[3].ConnectRemote(tup, qos.ProfileCMRate, qos.ClassDetectIndicate, cmSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-sendCh
	if err := r.ent[3].DisconnectRemote(1, vc, core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-discCh:
		if got != vc {
			t.Fatalf("disconnected vc = %v, want %v", got, vc)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote disconnect never reached the sink")
	}
}

func TestLargeOSDUSegmentation(t *testing.T) {
	cfg := Config{MaxTPDU: 512}
	r := newRig(t, 2, fastLink(), cfg)
	spec := cmSpec()
	spec.MaxOSDUSize = 10 * 1024
	spec.Throughput = qos.Tolerance{Preferred: 100, Acceptable: 10}
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	payload := bytes.Repeat([]byte{0xC3}, 10*1024-7)
	payload[0], payload[len(payload)-1] = 'A', 'Z'
	if _, err := s.Write(payload, 0); err != nil {
		t.Fatal(err)
	}
	u, err := rv.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u.Payload, payload) {
		t.Fatalf("10KB OSDU corrupted in segmentation (len %d vs %d)", len(u.Payload), len(payload))
	}
}

func TestZeroLengthOSDU(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	if _, err := s.Write(nil, 7); err != nil {
		t.Fatal(err)
	}
	u, err := rv.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Payload) != 0 || u.Event != 7 {
		t.Fatalf("zero OSDU = %d bytes, event %v", len(u.Payload), u.Event)
	}
}

func TestEventFieldEndToEnd(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	hits := make(chan core.OSDUSeq, 4)
	rv.RegisterEvent(0xCAFE)
	rv.SetEventHandler(func(seq core.OSDUSeq, ev core.EventPattern) {
		if ev == 0xCAFE {
			hits <- seq
		}
	})
	_, _ = s.Write([]byte("plain"), 0)
	_, _ = s.Write([]byte("marked"), 0xCAFE)
	_, _ = s.Write([]byte("other"), 0xBEEF) // registered pattern only
	for i := 0; i < 3; i++ {
		if _, err := rv.Read(); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case seq := <-hits:
		if seq != 1 {
			t.Fatalf("event at seq %d, want 1", seq)
		}
	case <-time.After(time.Second):
		t.Fatal("registered event never matched")
	}
	select {
	case seq := <-hits:
		t.Fatalf("unregistered pattern matched at seq %d", seq)
	default:
	}
}

// surpriseLoss is a loss model that admission control cannot predict
// (PathCapability only recognises Bernoulli and Gilbert-Elliott), so a
// soft-guaranteed connection is admitted and then degrades in service.
type surpriseLoss struct{ p float64 }

func (s surpriseLoss) Drop(r *mrand.Rand) bool { return r.Float64() < s.p }

func TestLossDetectedAndIndicated(t *testing.T) {
	link := fastLink()
	link.Loss = surpriseLoss{p: 0.2}
	link.Seed = 11
	cfg := Config{SamplePeriod: 100 * time.Millisecond}
	r := newRig(t, 2, link, cfg)
	qosCh := make(chan QoSIndication, 16)
	_ = r.ent[1].Attach(10, UserCallbacks{OnQoS: func(q QoSIndication) {
		select {
		case qosCh <- q:
		default:
		}
	}})
	spec := cmSpec()
	spec.PER = qos.CeilTolerance{Preferred: 0, Acceptable: 0.01} // strict: 20% loss violates
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if _, err := s.Write([]byte("xxxxxxxxxxxxxxxx"), 0); err != nil {
				return
			}
		}
	}()
	// Drain whatever arrives.
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	<-done
	// Scan indications until one reports the PER violation; early sample
	// periods may only show throughput ramp-up effects.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ind := <-qosCh:
			for _, p := range ind.Violated {
				if p == qos.PER {
					if ind.Report.PER <= 0 {
						t.Fatalf("PER violated but report PER = %g", ind.Report.PER)
					}
					return
				}
			}
		case <-deadline:
			t.Fatal("no T-QoS.indication with a PER violation reached the source user")
		}
	}
}

func TestCorrectingClassDeliversEverythingDespiteLoss(t *testing.T) {
	link := fastLink()
	link.Loss = netem.Bernoulli{P: 0.15}
	link.Seed = 5
	cfg := Config{RTO: 30 * time.Millisecond, AckEvery: 4}
	r := newRig(t, 2, link, cfg)
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 500, Acceptable: 10}
	s, rv := connectPair(t, r, qos.ClassDetectCorrect, qos.ProfileCMRate, spec)
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("reliable-%03d", i)), 0); err != nil {
				return
			}
		}
	}()
	deadline := time.After(20 * time.Second)
	for i := 0; i < n; i++ {
		type result struct {
			seq core.OSDUSeq
			pay string
		}
		ch := make(chan result, 1)
		go func() {
			u, err := rv.Read()
			if err != nil {
				return
			}
			ch <- result{u.Seq, string(u.Payload)}
		}()
		select {
		case got := <-ch:
			if got.seq != core.OSDUSeq(i) {
				t.Fatalf("OSDU %d: seq %d (loss despite correction)", i, got.seq)
			}
			if want := fmt.Sprintf("reliable-%03d", i); got.pay != want {
				t.Fatalf("OSDU %d corrupted: %q", i, got.pay)
			}
		case <-deadline:
			t.Fatalf("only %d of %d OSDUs recovered before deadline", i, n)
		}
	}
}

func TestBitErrorsCountedByIndicatingClass(t *testing.T) {
	link := fastLink()
	link.BitErrorRate = 2e-4 // ~1 in 5 of 128-byte TPDUs damaged
	link.Seed = 3
	cfg := Config{SamplePeriod: 80 * time.Millisecond}
	r := newRig(t, 2, link, cfg)
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	go func() {
		for i := 0; i < 400; i++ {
			if _, err := s.Write(bytes.Repeat([]byte{0xAB}, 128), 0); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		reports := rv.Reports()
		var bitErrs int
		for _, rep := range reports {
			bitErrs += rep.BitErrors
		}
		if bitErrs > 0 {
			return // detected and counted
		}
		select {
		case <-deadline:
			t.Fatal("no bit errors counted despite BER link")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestThroughputViolationIndicatedWhenSourceStalls(t *testing.T) {
	cfg := Config{SamplePeriod: 80 * time.Millisecond}
	r := newRig(t, 2, fastLink(), cfg)
	qosCh := make(chan QoSIndication, 16)
	_ = r.ent[1].Attach(10, UserCallbacks{OnQoS: func(q QoSIndication) {
		select {
		case qosCh <- q:
		default:
		}
	}})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	// Write briefly, then stall: the next sample period must show a
	// throughput violation (contract 200/s, measured ~0).
	for i := 0; i < 5; i++ {
		_, _ = s.Write([]byte("x"), 0)
	}
	select {
	case ind := <-qosCh:
		found := false
		for _, p := range ind.Violated {
			if p == qos.Throughput {
				found = true
			}
		}
		if !found {
			t.Fatalf("violations = %v, want throughput", ind.Violated)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled source never produced a throughput violation")
	}
}

func TestBackpressureNoLossWithSlowReader(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{RingSlots: 8})
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 2000, Acceptable: 10}
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	const n = 60
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("%03d", i)), 0); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		u, err := rv.Read()
		if err != nil {
			t.Fatal(err)
		}
		if u.Seq != core.OSDUSeq(i) {
			t.Fatalf("OSDU %d lost under backpressure (got seq %d)", i, u.Seq)
		}
		time.Sleep(2 * time.Millisecond) // slow reader
	}
}

func TestHoldFreezesFlow(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	_, _ = s.Write([]byte("before"), 0)
	if u, err := rv.Read(); err != nil || string(u.Payload) != "before" {
		t.Fatalf("priming read failed: %v", err)
	}
	s.Hold()
	if !s.Held() {
		t.Fatal("Held() = false after Hold")
	}
	_, _ = s.Write([]byte("frozen"), 0)
	got := make(chan string, 1)
	go func() {
		u, err := rv.Read()
		if err == nil {
			got <- string(u.Payload)
		}
	}()
	select {
	case p := <-got:
		t.Fatalf("data %q crossed a held VC", p)
	case <-time.After(100 * time.Millisecond):
	}
	s.Release()
	select {
	case p := <-got:
		if p != "frozen" {
			t.Fatalf("payload = %q", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flow never resumed after Release")
	}
}

func TestDropQueuedAndFlush(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{RingSlots: 8})
	s, _ := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	s.Hold()
	// Let the sender drain nothing; queue several OSDUs.
	for i := 0; i < 6; i++ {
		_, _ = s.Write([]byte("q"), 0)
	}
	// The send loop may have pulled one OSDU out of the ring before the
	// hold; the rest are queued.
	queued := s.Queued()
	if queued < 4 {
		t.Fatalf("queued = %d, want >= 4", queued)
	}
	if n := s.DropQueued(2); n != 2 {
		t.Fatalf("DropQueued = %d, want 2", n)
	}
	if s.Dropped() != 2 {
		t.Fatalf("Dropped = %d", s.Dropped())
	}
	if n := s.FlushQueued(); n != queued-2 {
		t.Fatalf("FlushQueued = %d, want %d", n, queued-2)
	}
	if s.Queued() != 0 {
		t.Fatalf("Queued = %d after flush", s.Queued())
	}
	s.Release()
}

func TestDeliveryRatePacing(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	rv.SetDeliveryRate(100) // 10ms per OSDU
	for i := 0; i < 10; i++ {
		_, _ = s.Write([]byte("x"), 0)
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		if _, err := rv.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("10 OSDUs at 100/s delivered in %v; pacing absent", elapsed)
	}
	rv.SetDeliveryRate(0) // clears
	for i := 0; i < 5; i++ {
		_, _ = s.Write([]byte("y"), 0)
	}
	start = time.Now()
	for i := 0; i < 5; i++ {
		if _, err := rv.Read(); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("unpaced delivery took %v", elapsed)
	}
}

func TestRenegotiateUpgrade(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	renegCh := make(chan qos.Contract, 1)
	_ = r.ent[1].Attach(10, UserCallbacks{
		OnRenegotiated: func(_ core.VCID, c qos.Contract) { renegCh <- c },
	})
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 50, Acceptable: 10}
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	if s.Contract().Throughput != 50 {
		t.Fatalf("initial throughput = %g", s.Contract().Throughput)
	}
	up := cmSpec()
	up.Throughput = qos.Tolerance{Preferred: 150, Acceptable: 100}
	final, err := s.Renegotiate(up)
	if err != nil {
		t.Fatal(err)
	}
	if final.Throughput != 150 {
		t.Fatalf("renegotiated throughput = %g, want 150", final.Throughput)
	}
	if rv.Contract().Throughput != 150 {
		t.Fatalf("sink contract = %g, want 150", rv.Contract().Throughput)
	}
	select {
	case c := <-renegCh:
		if c.Throughput != 150 {
			t.Fatalf("OnRenegotiated contract = %g", c.Throughput)
		}
	case <-time.After(time.Second):
		t.Fatal("OnRenegotiated never fired at source")
	}
	// Data still flows under the new contract.
	_, _ = s.Write([]byte("post-reneg"), 0)
	u, err := rv.Read()
	if err != nil || string(u.Payload) != "post-reneg" {
		t.Fatalf("read after reneg: %q/%v", u.Payload, err)
	}
}

func TestRenegotiateRejectedLeavesVCIntact(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	discCh := make(chan bool, 1)
	_ = r.ent[1].Attach(10, UserCallbacks{
		OnDisconnect: func(_ core.VCID, _ core.Reason, live bool) { discCh <- live },
	})
	recvCh := make(chan *RecvVC, 1)
	_ = r.ent[2].Attach(20, UserCallbacks{
		OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
		OnRenegotiate: func(core.VCID, qos.Contract, qos.Spec) (bool, qos.Spec) {
			return false, qos.Spec{}
		},
	})
	s, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rv := <-recvCh
	oldContract := s.Contract()

	_, err = s.Renegotiate(cmSpec())
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonUserRejected {
		t.Fatalf("err = %v, want user-rejected", err)
	}
	// Per §4.1.3 the rejection arrives as T-Disconnect.indication with
	// the VC still alive.
	select {
	case live := <-discCh:
		if !live {
			t.Fatal("T-Disconnect.indication reported the VC dead")
		}
	case <-time.After(time.Second):
		t.Fatal("no T-Disconnect.indication after rejected renegotiation")
	}
	if s.Contract() != oldContract {
		t.Fatal("contract changed despite rejection")
	}
	// And data still flows.
	_, _ = s.Write([]byte("still-alive"), 0)
	u, err := rv.Read()
	if err != nil || string(u.Payload) != "still-alive" {
		t.Fatalf("VC dead after rejected renegotiation: %q/%v", u.Payload, err)
	}
}

func TestRenegotiateGrowsOSDUSize(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	spec := cmSpec()
	spec.MaxOSDUSize = 512
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	// An OSDU above the old bound is refused before renegotiation.
	if _, err := s.Write(make([]byte, 1024), 0); err == nil {
		t.Fatal("oversized Write accepted before renegotiation")
	}
	up := cmSpec()
	up.MaxOSDUSize = 4096
	if _, err := s.Renegotiate(up); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{7}, 4096)
	if _, err := s.Write(big, 0); err != nil {
		t.Fatalf("Write after size upgrade: %v", err)
	}
	u, err := rv.Read()
	if err != nil || !bytes.Equal(u.Payload, big) {
		t.Fatalf("big OSDU after transparent re-establishment: len=%d err=%v", len(u.Payload), err)
	}
}

func TestWindowProfileTransfer(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{WindowSize: 4})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileWindow, cmSpec())
	const n = 40
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("w%02d", i)), 0); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		u, err := rv.Read()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("w%02d", i); string(u.Payload) != want {
			t.Fatalf("payload = %q, want %q", u.Payload, want)
		}
	}
}

func TestConnectTimeoutToDeadHost(t *testing.T) {
	// Host 2 has no entity (nil handler): requests vanish.
	nw := netem.New(sys)
	_ = nw.AddHost(1, nil)
	_ = nw.AddHost(2, nil)
	_ = nw.AddLink(1, 2, fastLink())
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	rm := resv.New(nw)
	e, err := NewEntity(1, sys, nw, rm, Config{ConnectTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Connect(ConnectRequest{
		SrcTSAP: 10, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	})
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rm.Count() != 0 {
		t.Fatal("reservation leaked on timeout")
	}
}

func TestAttachErrors(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	if err := r.ent[1].Attach(0, UserCallbacks{}); err == nil {
		t.Error("attach to TSAP 0 succeeded")
	}
	if err := r.ent[1].Attach(5, UserCallbacks{}); err != nil {
		t.Error(err)
	}
	if err := r.ent[1].Attach(5, UserCallbacks{}); err == nil {
		t.Error("duplicate attach succeeded")
	}
	r.ent[1].Detach(5)
	if err := r.ent[1].Attach(5, UserCallbacks{}); err != nil {
		t.Error("re-attach after detach failed")
	}
}

func TestConcurrentVCs(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	const vcs = 4
	const per = 25
	type pair struct {
		s  *SendVC
		rv *RecvVC
	}
	pairs := make([]pair, vcs)
	for i := 0; i < vcs; i++ {
		recvCh := make(chan *RecvVC, 1)
		_ = r.ent[2].Attach(core.TSAP(20+i), UserCallbacks{
			OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
		})
		s, err := r.ent[1].Connect(ConnectRequest{
			SrcTSAP: core.TSAP(10 + i), Dest: core.Addr{Host: 2, TSAP: core.TSAP(20 + i)},
			Class: qos.ClassDetectIndicate, Spec: cmSpec(),
		})
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = pair{s, <-recvCh}
	}
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(2)
		go func(i int, s *SendVC) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := s.Write([]byte(fmt.Sprintf("vc%d-%02d", i, j)), 0); err != nil {
					t.Errorf("vc %d write: %v", i, err)
					return
				}
			}
		}(i, p.s)
		go func(i int, rv *RecvVC) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				u, err := rv.Read()
				if err != nil {
					t.Errorf("vc %d read: %v", i, err)
					return
				}
				if want := fmt.Sprintf("vc%d-%02d", i, j); string(u.Payload) != want {
					t.Errorf("vc %d: payload %q, want %q", i, u.Payload, want)
					return
				}
			}
		}(i, p.rv)
	}
	wg.Wait()
}

func TestDelayMeasuredInReports(t *testing.T) {
	link := fastLink()
	link.Delay = 20 * time.Millisecond
	cfg := Config{SamplePeriod: 100 * time.Millisecond}
	r := newRig(t, 2, link, cfg)
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	go func() {
		for i := 0; i < 50; i++ {
			_, _ = s.Write([]byte("d"), 0)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	deadline := time.After(5 * time.Second)
	for {
		rep := rv.LastReport()
		if rep.Delivered > 0 {
			if rep.MeanDelay < 15*time.Millisecond {
				t.Fatalf("mean delay = %v, want >= ~20ms", rep.MeanDelay)
			}
			return
		}
		select {
		case <-deadline:
			t.Fatal("no report with deliveries")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestMulticastDeliversToAllSinks(t *testing.T) {
	r := newRig(t, 4, fastLink(), Config{})
	const sinks = 3
	recvs := make([]*RecvVC, 0, sinks)
	recvCh := make(chan *RecvVC, sinks)
	var dests []core.Addr
	for i := 0; i < sinks; i++ {
		host := core.HostID(2 + i)
		_ = r.ent[host].Attach(40, UserCallbacks{
			OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
		})
		dests = append(dests, core.Addr{Host: host, TSAP: 40})
	}
	s, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sinks; i++ {
		select {
		case rv := <-recvCh:
			recvs = append(recvs, rv)
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d sink handles arrived", len(recvs))
		}
	}
	const n = 25
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("mc-%02d", i)), 0); err != nil {
				return
			}
		}
	}()
	// Drain all sinks concurrently: slowest-member flow control holds
	// the source while ANY member's buffers are full, so a sequential
	// drain would deadlock by design.
	errCh := make(chan error, sinks)
	for _, rv := range recvs {
		go func(rv *RecvVC) {
			for i := 0; i < n; i++ {
				u, err := rv.Read()
				if err != nil {
					errCh <- err
					return
				}
				if want := fmt.Sprintf("mc-%02d", i); string(u.Payload) != want {
					errCh <- fmt.Errorf("sink %v: payload %q, want %q", rv.Tuple().Dest, u.Payload, want)
					return
				}
			}
			errCh <- nil
		}(rv)
	}
	for i := 0; i < sinks; i++ {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("multicast drain stalled")
		}
	}
	// Teardown releases every branch reservation and the group.
	if err := s.Close(core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked: %d", r.rm.Count())
	}
}

func TestMulticastSlowestSinkGovernsFlow(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{RingSlots: 8})
	recvCh := make(chan *RecvVC, 2)
	for _, host := range []core.HostID{2, 3} {
		_ = r.ent[host].Attach(41, UserCallbacks{
			OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
		})
	}
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 2000, Acceptable: 10}
	s, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: spec,
	}, []core.Addr{{Host: 2, TSAP: 41}, {Host: 3, TSAP: 41}})
	if err != nil {
		t.Fatal(err)
	}
	rvA := <-recvCh
	rvB := <-recvCh
	// A reads greedily, B slowly. Both must receive everything: B's
	// backpressure slows the group without losing A's data.
	const n = 40
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write([]byte(fmt.Sprintf("%03d", i)), 0); err != nil {
				return
			}
		}
	}()
	done := make(chan error, 2)
	go func() {
		for i := 0; i < n; i++ {
			u, err := rvA.Read()
			if err != nil || u.Seq != core.OSDUSeq(i) {
				done <- fmt.Errorf("fast sink: seq %d err %v at %d", u.Seq, err, i)
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < n; i++ {
			u, err := rvB.Read()
			if err != nil || u.Seq != core.OSDUSeq(i) {
				done <- fmt.Errorf("slow sink: seq %d err %v at %d", u.Seq, err, i)
				return
			}
			time.Sleep(3 * time.Millisecond)
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("multicast group stalled")
		}
	}
}

func TestMulticastRestrictions(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{})
	_ = r.ent[2].Attach(42, UserCallbacks{})
	dests := []core.Addr{{Host: 2, TSAP: 42}}
	if _, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectCorrect,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, dests); err == nil {
		t.Fatal("correcting-class multicast accepted")
	}
	if _, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileWindow, Spec: cmSpec(),
	}, dests); err == nil {
		t.Fatal("window-profile multicast accepted")
	}
	if _, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, nil); err == nil {
		t.Fatal("empty destination set accepted")
	}
	// Rejection by one member aborts the whole group cleanly.
	_ = r.ent[3].Attach(43, UserCallbacks{
		OnConnectIndication: func(core.ConnectTuple, Role, qos.Spec) (bool, qos.Spec) {
			return false, qos.Spec{}
		},
	})
	_, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, []core.Addr{{Host: 2, TSAP: 42}, {Host: 3, TSAP: 43}})
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonUserRejected {
		t.Fatalf("err = %v, want user-rejected", err)
	}
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked after group rejection: %d", r.rm.Count())
	}
	// A rejected multicast VC never went live.
	if _, ok := r.ent[1].SourceVC(0); ok {
		t.Fatal("phantom VC registered")
	}
}

// connectMulticast attaches tsap at every member host and opens a
// multicast VC from host 1 to all of them; onDisc, when non-nil, is each
// member's T-Disconnect.indication. It returns each member's sink handle.
func connectMulticast(t *testing.T, r *rig, tsap core.TSAP, members []core.HostID, onDisc func(core.HostID, core.Reason)) (*SendVC, map[core.HostID]*RecvVC) {
	t.Helper()
	recvCh := make(chan *RecvVC, len(members))
	dests := make([]core.Addr, len(members))
	for i, host := range members {
		cb := UserCallbacks{OnRecvReady: func(rv *RecvVC) { recvCh <- rv }}
		if onDisc != nil {
			cb.OnDisconnect = func(_ core.VCID, reason core.Reason, _ bool) { onDisc(host, reason) }
		}
		if err := r.ent[host].Attach(tsap, cb); err != nil {
			t.Fatal(err)
		}
		dests[i] = core.Addr{Host: host, TSAP: tsap}
	}
	s, err := r.ent[1].ConnectMulticast(ConnectRequest{
		SrcTSAP: 10, Class: qos.ClassDetectIndicate,
		Profile: qos.ProfileCMRate, Spec: cmSpec(),
	}, dests)
	if err != nil {
		t.Fatal(err)
	}
	rvs := make(map[core.HostID]*RecvVC, len(members))
	for range members {
		select {
		case rv := <-recvCh:
			rvs[rv.Tuple().Dest.Host] = rv
		case <-time.After(2 * time.Second):
			t.Fatalf("only %d of %d sink handles arrived", len(rvs), len(members))
		}
	}
	return s, rvs
}

// writeSeqs writes OSDUs from..to-1, each carrying its own number.
func writeSeqs(s *SendVC, from, to int) {
	for i := from; i < to; i++ {
		if _, err := s.Write([]byte(fmt.Sprintf("mc-%03d", i)), 0); err != nil {
			return
		}
	}
}

// readSeqs reads every given sink concurrently (slowest-member flow
// control stalls a sequential drain) and fails unless each delivers
// exactly OSDUs from..to-1 in order.
func readSeqs(t *testing.T, rvs []*RecvVC, from, to int) {
	t.Helper()
	errCh := make(chan error, len(rvs))
	for _, rv := range rvs {
		go func(rv *RecvVC) {
			for i := from; i < to; i++ {
				u, err := rv.Read()
				if err != nil {
					errCh <- err
					return
				}
				if want := fmt.Sprintf("mc-%03d", i); u.Seq != core.OSDUSeq(i) || string(u.Payload) != want {
					errCh <- fmt.Errorf("sink %v: seq %d %q, want %d %q", rv.Tuple().Dest.Host, u.Seq, u.Payload, i, want)
					return
				}
			}
			errCh <- nil
		}(rv)
	}
	for range rvs {
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("multicast drain stalled")
		}
	}
}

// TestMulticastFaultsApplyPerMember cuts one member off a multicast VC:
// the fault injector sees one unicast packet per member, so the cut
// member gets nothing new while the other keeps exact in-order delivery.
func TestMulticastFaultsApplyPerMember(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(f *faultnet.Network)
	}{
		{"partition", func(f *faultnet.Network) { f.Partition(1, 3) }},
		{"crash", func(f *faultnet.Network) { f.Crash(3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr := newFaultRig(t, 3, Config{})
			s, rvs := connectMulticast(t, fr.rig, 44, []core.HostID{2, 3}, nil)
			go writeSeqs(s, 0, 10)
			readSeqs(t, []*RecvVC{rvs[2], rvs[3]}, 0, 10)

			tc.cut(fr.fault)
			go writeSeqs(s, 10, 30)
			readSeqs(t, []*RecvVC{rvs[2]}, 10, 30)
			time.Sleep(50 * time.Millisecond) // anything still in flight to 3 lands
			if u, ok, _ := rvs[3].TryRead(); ok {
				t.Fatalf("cut member received OSDU %d after the cut", u.Seq)
			}
		})
	}
}

// TestMulticastCloseIndicatesEveryMember: releasing a multicast VC sends
// the disconnect to each member, and each raises T-Disconnect.indication.
func TestMulticastCloseIndicatesEveryMember(t *testing.T) {
	r := newRig(t, 4, fastLink(), Config{})
	type ind struct {
		host   core.HostID
		reason core.Reason
	}
	inds := make(chan ind, 3)
	s, _ := connectMulticast(t, r, 45, []core.HostID{2, 3, 4}, func(h core.HostID, reason core.Reason) {
		inds <- ind{h, reason}
	})
	if err := s.Close(core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	seen := map[core.HostID]bool{}
	for len(seen) < 3 {
		select {
		case in := <-inds:
			if in.reason != core.ReasonUserInitiated {
				t.Fatalf("member %v: reason %v", in.host, in.reason)
			}
			seen[in.host] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("T-Disconnect.indication reached only %v", seen)
		}
	}
}

// TestMulticastRenegotiateRefused: a multicast contract is fixed at
// establishment; renegotiation fails and changes nothing at either end.
func TestMulticastRenegotiateRefused(t *testing.T) {
	r := newRig(t, 3, fastLink(), Config{})
	s, rvs := connectMulticast(t, r, 46, []core.HostID{2, 3}, nil)
	before := s.Contract()
	spec := cmSpec()
	spec.Throughput.Preferred /= 2
	if _, err := s.Renegotiate(spec); err == nil {
		t.Fatal("multicast renegotiation accepted")
	}
	if got := s.Contract(); got != before {
		t.Fatalf("source contract %+v, want %+v", got, before)
	}
	for h, rv := range rvs {
		if got := rv.Contract(); got != before {
			t.Fatalf("member %v contract %+v, want %+v", h, got, before)
		}
	}
}

// dataTap is a substrate wrapper that records every data TPDU handed to
// it, copying the payload Send only borrows.
type dataTap struct {
	netif.Network
	mu   sync.Mutex
	data []netif.Packet
}

func (d *dataTap) Send(p netif.Packet) error {
	if k, _ := pdu.PeekKind(p.Payload); k == pdu.KindData {
		d.mu.Lock()
		q := p
		q.Payload = bytes.Clone(p.Payload)
		d.data = append(d.data, q)
		d.mu.Unlock()
	}
	return d.Network.Send(p)
}

func (d *dataTap) flow(vc core.VCID) []netif.Packet {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []netif.Packet
	for _, p := range d.data {
		if p.Flow == vc {
			out = append(out, p)
		}
	}
	return out
}

// TestFanOutOneSendPerMember counts substrate Sends: a unicast VC makes
// one per TPDU, and a 3-member multicast VC makes three — one per member,
// byte-identical, tagged with the shared VC id.
func TestFanOutOneSendPerMember(t *testing.T) {
	tap := &dataTap{}
	r := newRigVia(t, 4, fastLink(), Config{}, func(nw netif.Network) netif.Network {
		tap.Network = nw
		return tap
	})
	const n = 20

	uni, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	go writeSeqs(uni, 0, n)
	readSeqs(t, []*RecvVC{rv}, 0, n)
	pkts := tap.flow(uni.ID())
	if len(pkts) != n {
		t.Fatalf("unicast: %d data Sends for %d TPDUs", len(pkts), n)
	}
	for _, p := range pkts {
		if p.Dst != 2 {
			t.Fatalf("unicast: data sent to %v", p.Dst)
		}
	}

	members := []core.HostID{2, 3, 4}
	mc, rvs := connectMulticast(t, r, 47, members, nil)
	go writeSeqs(mc, 0, n)
	readSeqs(t, []*RecvVC{rvs[2], rvs[3], rvs[4]}, 0, n)
	pkts = tap.flow(mc.ID())
	if len(pkts) != n*len(members) {
		t.Fatalf("multicast: %d data Sends for %d TPDUs x %d members", len(pkts), n, len(members))
	}
	for i := 0; i < n; i++ {
		trio := pkts[i*len(members) : (i+1)*len(members)]
		for j, p := range trio {
			if p.Dst != members[j] || p.Flow != mc.ID() || !bytes.Equal(p.Payload, trio[0].Payload) {
				t.Fatalf("TPDU %d copy %d: dst %v flow %v, identical %v", i, j, p.Dst, p.Flow, bytes.Equal(p.Payload, trio[0].Payload))
			}
		}
	}
}

func TestBestEffortSkipsReservation(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	spec := cmSpec()
	spec.Guarantee = qos.BestEffort
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	if r.rm.Count() != 0 {
		t.Fatalf("best-effort connect reserved bandwidth: %d", r.rm.Count())
	}
	if _, err := s.Write([]byte("be"), 0); err != nil {
		t.Fatal(err)
	}
	if u, err := rv.Read(); err != nil || string(u.Payload) != "be" {
		t.Fatalf("best-effort data: %q/%v", u.Payload, err)
	}
}

func TestHardGuaranteeReserves(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	spec := cmSpec()
	spec.Guarantee = qos.Hard
	s, _ := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	if r.rm.Count() != 1 {
		t.Fatalf("hard guarantee did not reserve: %d", r.rm.Count())
	}
	if s.Contract().Guarantee != qos.Hard {
		t.Fatalf("guarantee = %v", s.Contract().Guarantee)
	}
}

func TestClassDetectStaysSilent(t *testing.T) {
	// The plain detect class discards damaged data without raising
	// indications (§3.4 option (i) is detect+indicate; plain detect is
	// the base behaviour).
	link := fastLink()
	link.Loss = surpriseLoss{p: 0.3}
	link.Seed = 13
	cfg := Config{SamplePeriod: 50 * time.Millisecond}
	r := newRig(t, 2, link, cfg)
	indicated := make(chan struct{}, 4)
	_ = r.ent[1].Attach(10, UserCallbacks{
		OnQoS: func(QoSIndication) {
			select {
			case indicated <- struct{}{}:
			default:
			}
		},
	})
	spec := cmSpec()
	spec.PER = qos.CeilTolerance{Preferred: 0, Acceptable: 0.01}
	s, rv := connectPair(t, r, qos.ClassDetect, qos.ProfileCMRate, spec)
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.Write([]byte("x"), 0); err != nil {
			break
		}
	}
	time.Sleep(300 * time.Millisecond)
	select {
	case <-indicated:
		t.Fatal("plain detect class raised T-QoS.indication")
	default:
	}
	// Losses were still measured (detected), just not indicated.
	var lost int
	for _, rep := range rv.Reports() {
		lost += rep.Lost
	}
	if lost == 0 {
		t.Fatal("no losses detected at 30% loss")
	}
}

func TestDatagramDemuxByTSAP(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	gotA := make(chan string, 1)
	gotB := make(chan string, 1)
	r.ent[2].SetDatagramHandler(7, func(_ core.HostID, d *pdu.Datagram) {
		gotA <- string(d.Payload)
	})
	r.ent[2].SetDatagramHandler(8, func(_ core.HostID, d *pdu.Datagram) {
		gotB <- string(d.Payload)
	})
	_ = r.ent[1].SendDatagram(2, &pdu.Datagram{SrcTSAP: 1, DstTSAP: 7, Payload: []byte("to-seven")})
	_ = r.ent[1].SendDatagram(2, &pdu.Datagram{SrcTSAP: 1, DstTSAP: 8, Payload: []byte("to-eight")})
	_ = r.ent[1].SendDatagram(2, &pdu.Datagram{SrcTSAP: 1, DstTSAP: 9, Payload: []byte("dropped")})
	select {
	case got := <-gotA:
		if got != "to-seven" {
			t.Fatalf("handler 7 got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("handler 7 never fired")
	}
	select {
	case got := <-gotB:
		if got != "to-eight" {
			t.Fatalf("handler 8 got %q", got)
		}
	case <-time.After(time.Second):
		t.Fatal("handler 8 never fired")
	}
}

func TestVBRMediaEndToEnd(t *testing.T) {
	// Variable-bit-rate OSDUs (§3.7: "at each time period there will
	// always be something to transmit (one logical unit) even when CM
	// data is variable bit rate encoded"): sizes vary per OSDU but the
	// logical-unit rate is constant and boundaries are preserved.
	r := newRig(t, 2, fastLink(), Config{MaxTPDU: 512})
	spec := cmSpec()
	spec.MaxOSDUSize = 8 * 1024
	spec.Throughput = qos.Tolerance{Preferred: 200, Acceptable: 20}
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)

	src := &mediaVBR{}
	const n = 60
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write(src.frame(i), 0); err != nil {
				return
			}
		}
	}()
	check := &mediaVBR{}
	for i := 0; i < n; i++ {
		u, err := rv.Read()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := check.frame(i)
		if !bytes.Equal(u.Payload, want) {
			t.Fatalf("VBR OSDU %d: %d bytes, want %d", i, len(u.Payload), len(want))
		}
	}
}

// mediaVBR deterministically generates variable-size payloads.
type mediaVBR struct{}

func (mediaVBR) frame(i int) []byte {
	size := 64 + (i*i*37)%7000 // 64..~7KB, deterministic
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestReassessPrioritiesScenario(t *testing.T) {
	// The §3.3 scenario: on a constrained link an upgrade is refused; the
	// user "re-assesses his priorities", closes another VC to free
	// resources, and the upgrade then succeeds.
	link := netem.LinkConfig{Bandwidth: 200e3, Delay: time.Millisecond, QueueLen: 1024}
	r := newRig(t, 2, link, Config{})
	spec := cmSpec()
	spec.MaxOSDUSize = 1024
	spec.Throughput = qos.Tolerance{Preferred: 80, Acceptable: 40}

	recvCh := make(chan *RecvVC, 2)
	for _, tsap := range []core.TSAP{21, 22} {
		_ = r.ent[2].Attach(tsap, UserCallbacks{
			OnRecvReady: func(rv *RecvVC) { recvCh <- rv },
		})
	}
	first, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 11, Dest: core.Addr{Host: 2, TSAP: 21},
		Class: qos.ClassDetectIndicate, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 12, Dest: core.Addr{Host: 2, TSAP: 22},
		Class: qos.ClassDetectIndicate, Spec: spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-recvCh
	<-recvCh

	// Upgrade of the first VC beyond the remaining capacity must fail...
	up := cmSpec()
	up.MaxOSDUSize = 1024
	up.Throughput = qos.Tolerance{Preferred: 150, Acceptable: 140}
	if _, err := first.Renegotiate(up); err == nil {
		t.Fatal("upgrade succeeded on a saturated link")
	}
	// ... so close the second VC and retry.
	if err := second.Close(core.ReasonUserInitiated); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.rm.Count() != 1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	final, err := first.Renegotiate(up)
	if err != nil {
		t.Fatalf("upgrade after freeing resources: %v", err)
	}
	if final.Throughput != 150 {
		t.Fatalf("upgraded throughput = %g, want 150", final.Throughput)
	}
}

func TestDegradationMidSessionIndicated(t *testing.T) {
	// A link that degrades IN SERVICE (netem.Degrade) triggers
	// T-QoS.indication even though admission saw a clean path.
	cfg := Config{SamplePeriod: 80 * time.Millisecond}
	r := newRig(t, 2, fastLink(), cfg)
	qosCh := make(chan QoSIndication, 8)
	_ = r.ent[1].Attach(10, UserCallbacks{OnQoS: func(q QoSIndication) {
		select {
		case qosCh <- q:
		default:
		}
	}})
	spec := cmSpec()
	spec.PER = qos.CeilTolerance{Preferred: 0, Acceptable: 0.02}
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, spec)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Write([]byte("x"), 0); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			if _, err := rv.Read(); err != nil {
				return
			}
		}
	}()
	// Healthy period: no PER violations expected yet. Then degrade.
	time.Sleep(200 * time.Millisecond)
	if err := r.net.Degrade(1, 2, netem.Bernoulli{P: 0.3}, -1); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ind := <-qosCh:
			for _, p := range ind.Violated {
				if p == qos.PER {
					return
				}
			}
		case <-deadline:
			t.Fatal("mid-session degradation never indicated")
		}
	}
}

func TestEntityCloseIdempotentAndTearsDown(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	s, rv := connectPair(t, r, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	r.ent[1].Close()
	r.ent[1].Close() // idempotent
	if _, err := s.Write([]byte("x"), 0); err == nil {
		t.Fatal("Write succeeded after entity close")
	}
	if _, err := r.ent[1].Connect(ConnectRequest{
		SrcTSAP: 99, Dest: core.Addr{Host: 2, TSAP: 20},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(),
	}); err == nil {
		t.Fatal("Connect succeeded after entity close")
	}
	if r.rm.Count() != 0 {
		t.Fatalf("reservations leaked on entity close: %d", r.rm.Count())
	}
	_ = rv
}

func TestDisconnectUnknownVC(t *testing.T) {
	r := newRig(t, 2, fastLink(), Config{})
	err := r.ent[1].Disconnect(0xDEAD, core.ReasonUserInitiated)
	rej, ok := err.(*RejectError)
	if !ok || rej.Reason != core.ReasonNoSuchVC {
		t.Fatalf("err = %v, want no-such-vc", err)
	}
}
