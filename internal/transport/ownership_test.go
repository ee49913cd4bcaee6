package transport

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/netif/faultnet"
	"cmtos/internal/pdu"
	"cmtos/internal/qos"
	"cmtos/internal/resv"
)

// recordingNet keeps a copy of every data TPDU the entities hand to Send,
// by TPDU sequence number, before passing the packet on.
type recordingNet struct {
	netif.Network
	mu   sync.Mutex
	sent map[uint64][][]byte
}

func (n *recordingNet) Send(p netif.Packet) error {
	var d pdu.Data
	if pdu.DecodeData(p.Payload, &d) == nil {
		n.mu.Lock()
		n.sent[d.Seq] = append(n.sent[d.Seq], bytes.Clone(p.Payload))
		n.mu.Unlock()
	}
	return n.Network.Send(p)
}

// TestRetransmissionIsByteIdentical drops one packet in twenty under a
// correcting class. The retransmit entry is the encoded buffer itself, so
// every re-send of a TPDU must be the very bytes of its first transmission
// (send timestamp and CRC included), taken from a buffer that releases and
// reuse by later TPDUs have not touched; and with the release poison on,
// delivery must still be exactly 0..N-1 with every payload intact.
func TestRetransmissionIsByteIdentical(t *testing.T) {
	nw := netem.New(sys)
	for id := core.HostID(1); id <= 2; id++ {
		if err := nw.AddHost(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := nw.AddLink(1, 2, fastLink()); err != nil {
		t.Fatal(err)
	}
	if err := nw.Start(); err != nil {
		t.Fatal(err)
	}
	fn := faultnet.Wrap(nw, faultnet.Options{Seed: 3, Clock: sys})
	t.Cleanup(fn.Close)
	rec := &recordingNet{Network: fn, sent: make(map[uint64][][]byte)}
	rm := resv.New(nw)
	r := &rig{net: nw, rm: rm, ent: make(map[core.HostID]*Entity)}
	for id := core.HostID(1); id <= 2; id++ {
		e, err := NewEntity(id, sys, rec, rm, Config{RTO: 30 * time.Millisecond, AckEvery: 4, MaxTPDU: 256})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		r.ent[id] = e
	}
	spec := cmSpec()
	spec.Throughput = qos.Tolerance{Preferred: 2000, Acceptable: 10}
	s, rv := connectPair(t, r, qos.ClassDetectCorrect, qos.ProfileCMRate, spec)
	fn.SetDrop(0.05) // after the handshake: data, acks and NAK-bearing acks all suffer

	const n = 400
	osdu := func(i int) []byte {
		// One to three fragments, content unique per OSDU and per offset.
		b := make([]byte, 100+(i%3)*250)
		for j := range b {
			b[j] = byte(i*7 + j)
		}
		return b
	}
	go func() {
		for i := 0; i < n; i++ {
			if _, err := s.Write(osdu(i), 0); err != nil {
				return
			}
		}
	}()
	got := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			u, err := rv.Read()
			if err != nil {
				got <- err
				return
			}
			if u.Seq != core.OSDUSeq(i) || !bytes.Equal(u.Payload, osdu(i)) {
				got <- fmt.Errorf("read %d: seq %d, %d bytes, payload intact: %v", i, u.Seq, len(u.Payload), bytes.Equal(u.Payload, osdu(i)))
				return
			}
		}
		got <- nil
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("delivered %d of %d OSDUs", rv.Delivered(), n)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	resent := 0
	for seq, copies := range rec.sent {
		for _, c := range copies[1:] {
			resent++
			if !bytes.Equal(c, copies[0]) {
				t.Fatalf("TPDU %d: a retransmission differs from the first transmission", seq)
			}
		}
	}
	if resent == 0 {
		t.Fatal("nothing was retransmitted under 5% loss: the test exercised no retransmit entry")
	}
	t.Logf("%d TPDUs, %d retransmissions, all byte-identical", len(rec.sent), resent)
}

// TestRetransWindow drives the retransmit window through the sequences the
// ack path produces — in-order release, a NAKed entry lingering while the
// window slides on past it, growth, wrap-around — against a plain map of
// what must be live.
func TestRetransWindow(t *testing.T) {
	var w retransWindow
	live := make(map[uint64]bool)
	next := uint64(41) // a resumed VC continues its predecessor's numbering
	push := func() {
		b := append(w.buffer(), byte(next))
		w.push(next, b, time.Time{})
		live[next] = true
		next++
	}
	resent := 0
	ack := func(cum uint64, naks ...uint64) {
		before := w.live()
		w.ack(cum, naks, time.Time{}, func(tpdu []byte) { resent++ }, func(time.Duration) {})
		// Released: live before, below cum, not NAKed.
		for seq := range live {
			if seq < cum && !slices.Contains(naks, seq) {
				delete(live, seq)
			}
		}
		if w.live() > before {
			t.Fatalf("ack(%d, %v) grew the window from %d to %d entries", cum, naks, before, w.live())
		}
	}
	check := func(when string) {
		t.Helper()
		if w.live() != len(live) {
			t.Fatalf("%s: window holds %d entries, want %d", when, w.live(), len(live))
		}
		seen := 0
		visit := func(e *retransEntry) {
			if !live[e.seq] || len(e.tpdu) != 1 || e.tpdu[0] != byte(e.seq) {
				t.Fatalf("%s: entry %d holds %v (live: %v)", when, e.seq, e.tpdu, live[e.seq])
			}
			seen++
		}
		for i := range w.naked {
			visit(&w.naked[i])
		}
		for i := 0; i < w.n; i++ {
			if e := w.at(i); e.seq != w.lo+uint64(i) {
				t.Fatalf("%s: in-flight slot %d holds seq %d, want %d", when, i, e.seq, w.lo+uint64(i))
			} else {
				visit(e)
			}
		}
		if seen != len(live) {
			t.Fatalf("%s: visited %d entries, want %d", when, seen, len(live))
		}
	}
	for i := 0; i < 5; i++ {
		push()
	}
	check("first pushes")
	ack(44, 42) // 41 and 43 released, 42 NAKed and kept
	check("nak below cum")
	if resent != 1 {
		t.Fatalf("%d entries re-sent for one NAK", resent)
	}
	for i := 0; i < 30; i++ { // slides far past the lingering 42 and grows the ring
		push()
		if i%3 == 2 {
			ack(next-2, 42)
			check("sliding")
		}
	}
	ack(next, 42)
	check("all but the NAKed entry released")
	if w.live() != 1 || !live[42] {
		t.Fatalf("expected only seq 42 to linger, have %v", live)
	}
	ack(next) // the receiver gave up asking: released
	check("drained")
	if len(w.free) == 0 {
		t.Fatal("released entries' buffers were not kept for reuse")
	}
	for i := 0; i < 100; i++ { // steady state: window of 8, wraps the ring many times
		push()
		if w.n == 8 {
			ack(w.lo + 4)
		}
		check("steady state")
	}
}
