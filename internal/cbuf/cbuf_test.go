package cbuf

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
)

var sys clock.System

func newRing(n, max int) *Ring { return New(sys, n, max) }

func TestPutGetPreservesBoundariesAndOrder(t *testing.T) {
	r := newRing(4, 64)
	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc"), {}}
	for i, p := range payloads {
		if err := r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: p}); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		u, err := r.Get()
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if u.Seq != core.OSDUSeq(i) {
			t.Errorf("seq = %d, want %d", u.Seq, i)
		}
		if !bytes.Equal(u.Payload, p) {
			t.Errorf("payload %d = %q, want %q", i, u.Payload, p)
		}
	}
}

func TestPutRejectsOversizedOSDU(t *testing.T) {
	r := newRing(2, 8)
	if err := r.Put(OSDU{Payload: make([]byte, 9)}); err == nil {
		t.Fatal("oversized Put succeeded")
	}
	if ok, err := r.TryPut(OSDU{Payload: make([]byte, 9)}); ok || err == nil {
		t.Fatal("oversized TryPut succeeded")
	}
}

func TestEventFieldCarried(t *testing.T) {
	r := newRing(2, 8)
	if err := r.Put(OSDU{Seq: 1, Event: 0xBEEF, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	u, err := r.Get()
	if err != nil || u.Event != 0xBEEF {
		t.Fatalf("event = %x, err = %v", u.Event, err)
	}
}

func TestTryPutFullAndTryGetEmpty(t *testing.T) {
	r := newRing(1, 8)
	if ok, err := r.TryPut(OSDU{Payload: []byte("a")}); !ok || err != nil {
		t.Fatalf("first TryPut = %v/%v", ok, err)
	}
	if ok, _ := r.TryPut(OSDU{Payload: []byte("b")}); ok {
		t.Fatal("TryPut succeeded on full ring")
	}
	if _, err := r.Get(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := r.TryGet(); ok || err != nil {
		t.Fatalf("TryGet on empty = %v/%v", ok, err)
	}
}

func TestBlockingPutWakesOnGet(t *testing.T) {
	r := newRing(1, 8)
	if err := r.Put(OSDU{Payload: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- r.Put(OSDU{Payload: []byte("b")}) }()
	select {
	case err := <-done:
		t.Fatalf("Put returned before Get: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if _, err := r.Get(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Put never woke")
	}
}

func TestBlockingGetWakesOnPut(t *testing.T) {
	r := newRing(1, 8)
	got := make(chan OSDU, 1)
	go func() {
		u, err := r.Get()
		if err != nil {
			t.Error(err)
		}
		got <- u
	}()
	time.Sleep(5 * time.Millisecond)
	if err := r.Put(OSDU{Seq: 7, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-got:
		if u.Seq != 7 {
			t.Fatalf("seq = %d, want 7", u.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Get never woke")
	}
}

func TestDeliveryGateHoldsDataBack(t *testing.T) {
	r := newRing(2, 8)
	r.HoldDelivery()
	if err := r.Put(OSDU{Seq: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := r.TryGet(); ok {
		t.Fatal("TryGet returned data through a held gate")
	}
	got := make(chan core.OSDUSeq, 1)
	go func() {
		u, err := r.Get()
		if err != nil {
			t.Error(err)
		}
		got <- u.Seq
	}()
	select {
	case <-got:
		t.Fatal("Get returned through a held gate")
	case <-time.After(10 * time.Millisecond):
	}
	r.ReleaseDelivery()
	select {
	case seq := <-got:
		if seq != 1 {
			t.Fatalf("seq = %d, want 1", seq)
		}
	case <-time.After(time.Second):
		t.Fatal("Get never woke after ReleaseDelivery")
	}
	if r.Gated() {
		t.Fatal("Gated still true after release")
	}
}

func TestPrimeFillsWhileGated(t *testing.T) {
	// The paper's prime: producers fill every slot while the gate holds
	// delivery; Full() then signals "primed".
	r := newRing(3, 8)
	r.HoldDelivery()
	for i := 0; i < 3; i++ {
		if err := r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Full() {
		t.Fatal("ring not full after filling while gated")
	}
}

func TestDropNewest(t *testing.T) {
	r := newRing(4, 8)
	for i := 1; i <= 3; i++ {
		_ = r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: []byte("x")})
	}
	seq, ok := r.DropNewest()
	if !ok || seq != 3 {
		t.Fatalf("DropNewest = %d/%v, want 3/true", seq, ok)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d, want 2", r.Len())
	}
	// Order of the remainder is unchanged.
	u, _ := r.Get()
	if u.Seq != 1 {
		t.Fatalf("head seq = %d, want 1", u.Seq)
	}
	// Empty ring: no drop.
	r2 := newRing(1, 8)
	if _, ok := r2.DropNewest(); ok {
		t.Fatal("DropNewest on empty ring reported ok")
	}
}

func TestFlushEmptiesAndWakesProducers(t *testing.T) {
	r := newRing(1, 8)
	_ = r.Put(OSDU{Seq: 1, Payload: []byte("x")})
	done := make(chan error, 1)
	go func() { done <- r.Put(OSDU{Seq: 2, Payload: []byte("y")}) }()
	time.Sleep(5 * time.Millisecond)
	if n := r.Flush(); n != 1 {
		t.Fatalf("Flush dropped %d, want 1", n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("producer never woke after Flush")
	}
	u, err := r.Get()
	if err != nil || u.Seq != 2 {
		t.Fatalf("after flush got seq %d, want 2", u.Seq)
	}
}

func TestCloseUnblocksAndDrains(t *testing.T) {
	r := newRing(2, 8)
	_ = r.Put(OSDU{Seq: 1, Payload: []byte("x")})
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() false after Close")
	}
	if err := r.Put(OSDU{Seq: 2, Payload: []byte("y")}); err != ErrClosed {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	u, err := r.Get()
	if err != nil || u.Seq != 1 {
		t.Fatalf("drain after close: %v/%v", u.Seq, err)
	}
	if _, err := r.Get(); err != ErrClosed {
		t.Fatalf("Get on drained closed ring = %v, want ErrClosed", err)
	}
	if _, _, err := r.TryGet(); err != ErrClosed {
		t.Fatalf("TryGet on drained closed ring = %v, want ErrClosed", err)
	}
}

func TestCloseUnblocksWaiters(t *testing.T) {
	empty := newRing(1, 8) // consumer blocks on this one
	full := newRing(1, 8)  // producer blocks on this one
	_ = full.Put(OSDU{Payload: []byte("x")})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := empty.Get(); err != ErrClosed {
			t.Errorf("blocked Get = %v, want ErrClosed", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := full.Put(OSDU{Payload: []byte("y")}); err != ErrClosed {
			t.Errorf("blocked Put = %v, want ErrClosed", err)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	empty.Close()
	full.Close()
	wg.Wait()
}

func TestBlockingStatsAttributed(t *testing.T) {
	r := newRing(1, 8)
	_ = r.Put(OSDU{Payload: []byte("x")})
	go func() {
		time.Sleep(30 * time.Millisecond)
		_, _ = r.Get()
	}()
	if err := r.Put(OSDU{Payload: []byte("y")}); err != nil { // blocks ~30ms
		t.Fatal(err)
	}
	s := r.TakeStats()
	if s.ProducerBlocked < 10*time.Millisecond {
		t.Fatalf("producer blocked %v, want >=10ms", s.ProducerBlocked)
	}
	if s.ConsumerBlocked != 0 {
		t.Fatalf("consumer blocked %v, want 0", s.ConsumerBlocked)
	}
	// Stats reset on read.
	if s2 := r.TakeStats(); s2.ProducerBlocked != 0 || s2.ConsumerBlocked != 0 {
		t.Fatalf("stats not reset: %+v", s2)
	}
}

func TestConsumerBlockedStat(t *testing.T) {
	r := newRing(1, 8)
	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = r.Put(OSDU{Payload: []byte("x")})
	}()
	if _, err := r.Get(); err != nil {
		t.Fatal(err)
	}
	s := r.TakeStats()
	if s.ConsumerBlocked < 10*time.Millisecond {
		t.Fatalf("consumer blocked %v, want >=10ms", s.ConsumerBlocked)
	}
}

func TestNextSeqPeeks(t *testing.T) {
	r := newRing(2, 8)
	if _, ok := r.NextSeq(); ok {
		t.Fatal("NextSeq on empty ring reported ok")
	}
	_ = r.Put(OSDU{Seq: 42, Payload: []byte("x")})
	seq, ok := r.NextSeq()
	if !ok || seq != 42 {
		t.Fatalf("NextSeq = %d/%v, want 42/true", seq, ok)
	}
	if r.Len() != 1 {
		t.Fatal("NextSeq consumed the OSDU")
	}
}

func TestGetPayloadValidUntilSlotReuse(t *testing.T) {
	r := newRing(2, 8)
	_ = r.Put(OSDU{Seq: 1, Payload: []byte("AA")})
	_ = r.Put(OSDU{Seq: 2, Payload: []byte("BB")})
	u1, _ := r.Get()
	got := string(u1.Payload) // copy now, before slot reuse
	if got != "AA" {
		t.Fatalf("payload = %q", got)
	}
}

// TestGotPayloadSurvivesEverythingButTheNextGet pins the lifetime the send
// pump segments under: between one TryGet and the next, producers refilling
// the freed slot, source-side discards, a flush and a slot resize all leave
// the handed-out payload intact.
func TestGotPayloadSurvivesEverythingButTheNextGet(t *testing.T) {
	r := newRing(2, 8)
	_ = r.Put(OSDU{Seq: 1, Payload: []byte("AAAAAAAA")})
	u, ok, err := r.TryGet()
	if !ok || err != nil {
		t.Fatalf("TryGet: %v %v", ok, err)
	}
	_ = r.Put(OSDU{Seq: 2, Payload: []byte("BBBBBBBB")})
	_ = r.Put(OSDU{Seq: 3, Payload: []byte("CCCCCCCC")}) // lands in the slot seq 1 vacated
	r.DropNewest()
	if err := r.ResizeSlots(64); err != nil {
		t.Fatal(err)
	}
	_ = r.Put(OSDU{Seq: 4, Payload: bytes.Repeat([]byte("D"), 64)})
	r.Flush()
	if string(u.Payload) != "AAAAAAAA" {
		t.Fatalf("payload handed out by TryGet changed to %q before the next Get", u.Payload)
	}
}

func TestConcurrentProducerConsumer(t *testing.T) {
	r := newRing(8, 16)
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("%d", i))
			if err := r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: payload}); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		u, err := r.Get()
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if u.Seq != core.OSDUSeq(i) {
			t.Fatalf("seq = %d, want %d (FIFO violated)", u.Seq, i)
		}
		if want := fmt.Sprintf("%d", i); string(u.Payload) != want {
			t.Fatalf("payload = %q, want %q", u.Payload, want)
		}
	}
	wg.Wait()
}

func TestNewPanicsOnBadArguments(t *testing.T) {
	for _, args := range [][2]int{{0, 8}, {8, 0}, {-1, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", args[0], args[1])
				}
			}()
			New(sys, args[0], args[1])
		}()
	}
}

// Property: any interleaving of puts and gets preserves FIFO order of
// sequence numbers and never loses or duplicates an OSDU.
func TestQuickFIFO(t *testing.T) {
	f := func(sizes []uint8) bool {
		r := newRing(4, 4)
		var produced, consumed []core.OSDUSeq
		seq := core.OSDUSeq(0)
		for _, s := range sizes {
			if s%2 == 0 {
				if ok, _ := r.TryPut(OSDU{Seq: seq, Payload: []byte{byte(seq)}}); ok {
					produced = append(produced, seq)
					seq++
				}
			} else if u, ok, _ := r.TryGet(); ok {
				consumed = append(consumed, u.Seq)
			}
		}
		for {
			u, ok, _ := r.TryGet()
			if !ok {
				break
			}
			consumed = append(consumed, u.Seq)
		}
		if len(produced) != len(consumed) {
			return false
		}
		for i := range produced {
			if produced[i] != consumed[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeSlotsGrowPreservesContents(t *testing.T) {
	r := newRing(4, 8)
	for i := 1; i <= 3; i++ {
		_ = r.Put(OSDU{Seq: core.OSDUSeq(i), Event: core.EventPattern(i), Payload: []byte{byte(i), byte(i + 1)}})
	}
	_, _ = r.Get() // advance head so the ring is wrapped
	_ = r.Put(OSDU{Seq: 4, Payload: []byte{4, 5}})
	if err := r.ResizeSlots(64); err != nil {
		t.Fatal(err)
	}
	if r.SlotSize() != 64 {
		t.Fatalf("SlotSize = %d", r.SlotSize())
	}
	for i := 2; i <= 4; i++ {
		u, err := r.Get()
		if err != nil {
			t.Fatal(err)
		}
		if u.Seq != core.OSDUSeq(i) || u.Payload[0] != byte(i) {
			t.Fatalf("after resize: seq %d payload %v", u.Seq, u.Payload)
		}
	}
	// Larger OSDUs now fit.
	if err := r.Put(OSDU{Seq: 9, Payload: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeSlotsShrinkRejectedWhenContentTooBig(t *testing.T) {
	r := newRing(2, 32)
	_ = r.Put(OSDU{Seq: 1, Payload: make([]byte, 20)})
	if err := r.ResizeSlots(8); err == nil {
		t.Fatal("shrink below queued OSDU size succeeded")
	}
	// Shrink is fine when contents fit.
	if err := r.ResizeSlots(24); err != nil {
		t.Fatal(err)
	}
	u, err := r.Get()
	if err != nil || len(u.Payload) != 20 {
		t.Fatalf("content lost on legal shrink: %d/%v", len(u.Payload), err)
	}
}

func TestResizeSlotsRejectsNonPositive(t *testing.T) {
	r := newRing(2, 8)
	if err := r.ResizeSlots(0); err == nil {
		t.Fatal("zero resize accepted")
	}
}

func TestResizeSlotsKeepsCapacityAndOrderAcrossWrap(t *testing.T) {
	r := newRing(3, 4)
	for i := 0; i < 3; i++ {
		_ = r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: []byte{byte(i)}})
	}
	_, _ = r.Get()
	_, _ = r.Get()
	_ = r.Put(OSDU{Seq: 3, Payload: []byte{3}})
	_ = r.Put(OSDU{Seq: 4, Payload: []byte{4}}) // ring wrapped, full
	if err := r.ResizeSlots(16); err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 3 || r.Len() != 3 {
		t.Fatalf("cap/len = %d/%d", r.Cap(), r.Len())
	}
	for want := 2; want <= 4; want++ {
		u, _ := r.Get()
		if int(u.Seq) != want {
			t.Fatalf("seq = %d, want %d", u.Seq, want)
		}
	}
}

func TestNotifyFullSignalsOnLastSlot(t *testing.T) {
	r := newRing(3, 16)
	ch := make(chan struct{}, 1)
	r.NotifyFull(ch)
	for i := 0; i < 2; i++ {
		if err := r.Put(OSDU{Seq: core.OSDUSeq(i), Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ch:
			t.Fatalf("signalled with %d free slots", 3-r.Len())
		default:
		}
	}
	if err := r.Put(OSDU{Seq: 2, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("last-slot Put never signalled")
	}
	// Registering against an already-full ring signals immediately.
	ch2 := make(chan struct{}, 1)
	r.NotifyFull(ch2)
	select {
	case <-ch2:
	case <-time.After(time.Second):
		t.Fatal("no immediate signal for an already-full ring")
	}
	// After deregistering, refilling must not signal.
	r.StopNotifyFull(ch)
	if _, err := r.Get(); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(OSDU{Seq: 3, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
		t.Fatal("deregistered channel still signalled")
	default:
	}
}

func TestNotifyFullWakesOnClose(t *testing.T) {
	r := newRing(4, 16)
	ch := make(chan struct{}, 1)
	r.NotifyFull(ch)
	r.Close()
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("Close never signalled NotifyFull waiters")
	}
}
