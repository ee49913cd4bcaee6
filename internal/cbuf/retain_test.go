package cbuf

import (
	"testing"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
)

func put(t *testing.T, r *Ring, seq core.OSDUSeq, payload string) {
	t.Helper()
	if err := r.Put(OSDU{Seq: seq, Payload: []byte(payload)}); err != nil {
		t.Fatalf("Put(%d): %v", seq, err)
	}
}

func TestSealReturnsExactConsumedWatermark(t *testing.T) {
	r := New(sys, 4, 64)
	for i := 0; i < 4; i++ {
		put(t, r, core.OSDUSeq(i), "x")
	}
	for i := 0; i < 2; i++ {
		u, err := r.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if u.Seq != core.OSDUSeq(i) {
			t.Fatalf("Get seq = %d, want %d", u.Seq, i)
		}
	}
	if got := r.Consumed(); got != 2 {
		t.Fatalf("Consumed = %d, want 2", got)
	}
	if got := r.Seal(); got != 2 {
		t.Fatalf("Seal = %d, want 2", got)
	}
	// Unlike Close, Seal discards the queued remainder: no further Get may
	// succeed, so the watermark stays exact.
	if _, err := r.Get(); err != ErrClosed {
		t.Fatalf("Get after Seal = %v, want ErrClosed", err)
	}
	if !r.Sealed() || !r.Closed() {
		t.Fatal("Sealed/Closed should report true after Seal")
	}
	if got := r.Consumed(); got != 2 {
		t.Fatalf("Consumed after Seal = %d, want 2", got)
	}
}

func TestCloseStillDrainsButSealDoesNot(t *testing.T) {
	r := New(sys, 4, 64)
	put(t, r, 0, "a")
	r.Close()
	if u, err := r.Get(); err != nil || u.Seq != 0 {
		t.Fatalf("Get after Close = (%v, %v), want seq 0", u.Seq, err)
	}
	if _, err := r.Get(); err != ErrClosed {
		t.Fatalf("drained Get = %v, want ErrClosed", err)
	}
}

func TestDrainCopiesQueuedOSDUs(t *testing.T) {
	r := New(sys, 4, 64)
	put(t, r, 5, "five")
	put(t, r, 6, "six")
	out := r.Drain()
	if len(out) != 2 || out[0].Seq != 5 || out[1].Seq != 6 {
		t.Fatalf("Drain = %+v, want seqs 5,6", out)
	}
	if string(out[0].Payload) != "five" || string(out[1].Payload) != "six" {
		t.Fatalf("Drain payloads = %q,%q", out[0].Payload, out[1].Payload)
	}
	// Payloads must be copies, not scratch aliases: both remain intact.
	if &out[0].Payload[0] == &out[1].Payload[0] {
		t.Fatal("Drain payloads alias each other")
	}
	if r.Len() != 0 {
		t.Fatalf("Len after Drain = %d, want 0", r.Len())
	}
	if got := r.Consumed(); got != 7 {
		t.Fatalf("Consumed after Drain = %d, want 7", got)
	}
}

func TestRetainerReplayAndDrop(t *testing.T) {
	rt := NewRetainer(sys, 8, 0)
	for i := 0; i < 5; i++ {
		rt.Keep(OSDU{Seq: core.OSDUSeq(i), Payload: []byte{byte('a' + i)}})
	}
	out, missed := rt.ReplayFrom(2)
	if missed != 0 || len(out) != 3 || out[0].Seq != 2 || out[2].Seq != 4 {
		t.Fatalf("ReplayFrom(2) = %+v missed=%d", out, missed)
	}
	if string(out[1].Payload) != "d" {
		t.Fatalf("replayed payload = %q, want d", out[1].Payload)
	}
	rt.DropThrough(4)
	if rt.Len() != 1 {
		t.Fatalf("Len after DropThrough(4) = %d, want 1", rt.Len())
	}
	if rt.Expired() != 0 {
		t.Fatalf("DropThrough must not count as expired, got %d", rt.Expired())
	}
}

func TestRetainerCapEviction(t *testing.T) {
	rt := NewRetainer(sys, 3, 0)
	for i := 0; i < 5; i++ {
		rt.Keep(OSDU{Seq: core.OSDUSeq(i), Payload: []byte("p")})
	}
	if rt.Len() != 3 {
		t.Fatalf("Len = %d, want 3", rt.Len())
	}
	if rt.Expired() != 2 {
		t.Fatalf("Expired = %d, want 2", rt.Expired())
	}
	out, missed := rt.ReplayFrom(0)
	if len(out) != 3 || out[0].Seq != 2 {
		t.Fatalf("ReplayFrom(0) = %+v", out)
	}
	if missed != 2 {
		t.Fatalf("missed = %d, want 2 (seqs 0,1 expired)", missed)
	}
}

func TestRetainerAgeEviction(t *testing.T) {
	clk := clock.NewManual(time.Unix(0, 0))
	rt := NewRetainer(clk, 0, 100*time.Millisecond)
	rt.Keep(OSDU{Seq: 0, Payload: []byte("old")})
	clk.Advance(200 * time.Millisecond)
	rt.Keep(OSDU{Seq: 1, Payload: []byte("new")})
	if rt.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (seq 0 aged out)", rt.Len())
	}
	if rt.Expired() != 1 {
		t.Fatalf("Expired = %d, want 1", rt.Expired())
	}
	out, missed := rt.ReplayFrom(0)
	if len(out) != 1 || out[0].Seq != 1 || missed != 1 {
		t.Fatalf("ReplayFrom(0) = %+v missed=%d", out, missed)
	}
}

// TestRetainerWrapsWithoutShiftingOrAllocating drives the circular layout
// through several revolutions with every removal path interleaved — cap
// eviction, DropThrough from the middle of a revolution, growth of an
// unbounded retainer — and checks that the replay is the exact kept
// suffix each time, that each payload is the one kept under that sequence
// (a reused slot must not leak its previous tenant's bytes), and that a
// full retainer's Keep reuses the evicted slot's storage.
func TestRetainerWrapsWithoutShiftingOrAllocating(t *testing.T) {
	payload := func(seq core.OSDUSeq) []byte {
		return []byte{byte(seq), byte(seq >> 8), byte(seq), byte(seq >> 8)}[:1+seq%4]
	}
	check := func(rt *Retainer, first, next core.OSDUSeq) {
		t.Helper()
		out, missed := rt.ReplayFrom(0)
		if len(out) != int(next-first) || missed != int(first) {
			t.Fatalf("holding [%d,%d): replay of %d OSDUs, missed %d", first, next, len(out), missed)
		}
		for i, u := range out {
			if want := first + core.OSDUSeq(i); u.Seq != want || string(u.Payload) != string(payload(want)) {
				t.Fatalf("replay[%d] = seq %d payload %v, want seq %d payload %v", i, u.Seq, u.Payload, want, payload(want))
			}
		}
		if last, ok := rt.LastSeq(); ok != (next > first) || (ok && last != next-1) {
			t.Fatalf("LastSeq = %d,%v holding [%d,%d)", last, ok, first, next)
		}
	}
	for _, slots := range []int{5, 0} { // bounded, then growing
		rt := NewRetainer(sys, slots, 0)
		var first, next core.OSDUSeq
		for round := 0; round < 40; round++ {
			for i := 0; i < 3; i++ {
				rt.Keep(OSDU{Seq: next, Payload: payload(next)})
				next++
			}
			if slots > 0 && int(next-first) > slots {
				first = next - core.OSDUSeq(slots)
			}
			check(rt, first, next)
			if round%3 == 2 {
				first = min(first+2, next)
				rt.DropThrough(first)
				check(rt, first, next)
			}
		}
	}

	rt := NewRetainer(sys, 64, 0)
	u := OSDU{Payload: make([]byte, 1024)}
	keep := func() { rt.Keep(u); u.Seq++ }
	for i := 0; i < 128; i++ {
		keep()
	}
	if n := testing.AllocsPerRun(200, keep); n != 0 {
		t.Errorf("Keep on a full retainer allocates %.1f per OSDU, want 0", n)
	}
}
