package transport

import (
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netif"
	"cmtos/internal/netif/faultnet"
	"cmtos/internal/qos"
)

// faultRig is a rig whose entities send through a fault injector, so
// tests can crash and partition hosts.
type faultRig struct {
	*rig
	fault *faultnet.Network
}

func newFaultRig(t *testing.T, n int, cfg Config) *faultRig {
	t.Helper()
	var fn *faultnet.Network
	r := newRigVia(t, n, fastLink(), cfg, func(nw netif.Network) netif.Network {
		fn = faultnet.Wrap(nw, faultnet.Options{Seed: 11, Clock: sys})
		t.Cleanup(fn.Close)
		return fn
	})
	return &faultRig{rig: r, fault: fn}
}

func TestLivenessDeclaresCrashedPeerDead(t *testing.T) {
	cfg := Config{KeepaliveInterval: 50 * time.Millisecond, KeepaliveMisses: 2}
	fr := newFaultRig(t, 2, cfg)

	discCh := make(chan core.Reason, 1)
	liveCh := make(chan bool, 1)
	_ = fr.ent[1].Attach(10, UserCallbacks{
		OnDisconnect: func(_ core.VCID, reason core.Reason, live bool) {
			discCh <- reason
			liveCh <- live
		},
	})
	downCh := make(chan core.HostID, 1)
	fr.ent[1].SetPeerDownHandler(func(peer core.HostID, vcs []core.VCID) {
		downCh <- peer
	})
	s, _ := connectPair(t, fr.rig, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())
	if fr.rm.Count() != 1 {
		t.Fatalf("reservations = %d before crash", fr.rm.Count())
	}

	fr.fault.Crash(2)
	start := time.Now()

	// Detection window: (misses+1) silent intervals plus a tick of slop.
	window := time.Duration(cfg.KeepaliveMisses+2) * cfg.KeepaliveInterval
	select {
	case reason := <-discCh:
		if reason != core.ReasonNetworkFailure {
			t.Fatalf("reason = %v, want network-failure", reason)
		}
		if live := <-liveCh; live {
			t.Fatal("dead-peer OnDisconnect reported the VC live")
		}
	case <-time.After(10 * window):
		t.Fatalf("crash not detected within %v", 10*window)
	}
	if elapsed := time.Since(start); elapsed > 5*window {
		t.Errorf("detection took %v, want within ~%v", elapsed, window)
	}
	select {
	case peer := <-downCh:
		if peer != 2 {
			t.Fatalf("peer-down hook fired for %v", peer)
		}
	case <-time.After(time.Second):
		t.Fatal("peer-down hook never fired")
	}
	// No leaked reservation or VC state.
	deadline := time.Now().Add(2 * time.Second)
	for fr.rm.Count() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if fr.rm.Count() != 0 {
		t.Fatalf("reservations leaked after peer death: %d", fr.rm.Count())
	}
	if _, ok := fr.ent[1].SourceVC(s.ID()); ok {
		t.Fatal("send VC still registered after peer death")
	}
	// Writes on the dead VC fail rather than wedge.
	if _, err := s.Write([]byte("x"), 0); err == nil {
		t.Fatal("Write succeeded on a dead VC")
	}
}

func TestLivenessSparesIdleButAlivePeer(t *testing.T) {
	cfg := Config{KeepaliveInterval: 30 * time.Millisecond, KeepaliveMisses: 2}
	fr := newFaultRig(t, 2, cfg)
	disc := make(chan struct{}, 1)
	_ = fr.ent[1].Attach(10, UserCallbacks{
		OnDisconnect: func(core.VCID, core.Reason, bool) { disc <- struct{}{} },
	})
	s, _ := connectPair(t, fr.rig, qos.ClassDetectIndicate, qos.ProfileCMRate, cmSpec())

	// Total silence from the user for many probe intervals: keepalives
	// must keep the VC alive.
	select {
	case <-disc:
		t.Fatal("idle but reachable peer was declared dead")
	case <-time.After(15 * cfg.KeepaliveInterval):
	}
	if _, ok := fr.ent[1].SourceVC(s.ID()); !ok {
		t.Fatal("send VC vanished while the peer was alive")
	}
}
