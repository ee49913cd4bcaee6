package cbuf

import (
	"sync"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
)

// Retainer keeps copies of OSDUs that have already left the send-side ring
// — accepted by the application and handed to the protocol thread — so a
// session supervisor can replay them after a VC failure, restarting the
// stream exactly at the sequence number the receiver last delivered.
//
// Retention is bounded the CM-appropriate way: continuous-media data goes
// stale, so entries older than the jitter bound (maxAge) and entries beyond
// the slot cap are expired rather than kept forever. Expired entries are
// counted; a replay that can no longer reach back to the requested sequence
// reports the shortfall so the caller can account the gap.
type Retainer struct {
	clk    clock.Clock
	maxAge time.Duration
	cap    int

	mu sync.Mutex
	// entries is a circular buffer of n live entries starting at head, in
	// sequence order. It grows by doubling (to at most cap when bounded);
	// a slot vacated at the head keeps its payload backing array, which
	// the next Keep to land on the slot overwrites in place.
	entries []retained
	head, n int
	expired uint64
}

type retained struct {
	seq     core.OSDUSeq
	event   core.EventPattern
	at      time.Time
	payload []byte
}

// NewRetainer returns a retainer holding at most cap OSDUs, each for at
// most maxAge. A cap <= 0 or maxAge <= 0 disables the respective bound.
func NewRetainer(clk clock.Clock, cap int, maxAge time.Duration) *Retainer {
	return &Retainer{clk: clk, maxAge: maxAge, cap: cap}
}

// at returns the i-th oldest live entry; caller holds mu.
func (t *Retainer) at(i int) *retained {
	return &t.entries[(t.head+i)%len(t.entries)]
}

// dropOldestLocked vacates k entries at the head; caller holds mu.
func (t *Retainer) dropOldestLocked(k int) {
	t.head = (t.head + k) % len(t.entries)
	t.n -= k
}

// Keep copies u into the retained range. OSDUs must be kept in sequence
// order (the send loop's natural order). A full retainer evicts its oldest
// entry and reuses that entry's payload storage, so steady-state retention
// neither shifts the history nor allocates.
func (t *Retainer) Keep(u OSDU) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clk.Now()
	t.expireLocked(now)
	if t.cap > 0 && t.n == t.cap {
		t.dropOldestLocked(1)
		t.expired++
	}
	if t.n == len(t.entries) {
		t.growLocked()
	}
	e := t.at(t.n)
	e.seq, e.event, e.at = u.Seq, u.Event, now
	e.payload = append(e.payload[:0], u.Payload...)
	t.n++
}

// growLocked doubles the circular buffer, unrolling it to start at index
// 0; caller holds mu and the buffer is full.
func (t *Retainer) growLocked() {
	size := max(2*len(t.entries), 16)
	if t.cap > 0 {
		size = min(size, t.cap)
	}
	grown := make([]retained, size)
	for i := 0; i < t.n; i++ {
		grown[i] = *t.at(i)
	}
	t.entries, t.head = grown, 0
}

// expireLocked drops entries past the age bound, oldest-first; caller
// holds mu.
func (t *Retainer) expireLocked(now time.Time) {
	if t.maxAge <= 0 {
		return
	}
	k := 0
	for k < t.n && now.Sub(t.at(k).at) > t.maxAge {
		k++
	}
	if k > 0 {
		t.dropOldestLocked(k)
		t.expired += uint64(k)
	}
}

// DropThrough discards every retained OSDU with sequence below seq — data
// the receiver has confirmed delivered. These do not count as expired.
func (t *Retainer) DropThrough(seq core.OSDUSeq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := 0
	for k < t.n && t.at(k).seq < seq {
		k++
	}
	if k > 0 {
		t.dropOldestLocked(k)
	}
}

// ReplayFrom returns copies of every retained OSDU with sequence >= seq,
// oldest-first, after expiring stale entries. missed reports how many
// OSDUs in [seq, first returned) have already been expired and cannot be
// replayed — the receiver will observe that gap as loss.
func (t *Retainer) ReplayFrom(seq core.OSDUSeq) (out []OSDU, missed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.expireLocked(t.clk.Now())
	for i := 0; i < t.n; i++ {
		e := t.at(i)
		if e.seq < seq {
			continue
		}
		if len(out) == 0 && e.seq > seq {
			missed = int(e.seq - seq)
		}
		p := make([]byte, len(e.payload))
		copy(p, e.payload)
		out = append(out, OSDU{Seq: e.seq, Event: e.event, Payload: p})
	}
	return out, missed
}

// LastSeq returns the highest retained sequence number; ok is false when
// nothing is retained.
func (t *Retainer) LastSeq() (core.OSDUSeq, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return 0, false
	}
	return t.at(t.n - 1).seq, true
}

// Expired returns the cumulative count of retained OSDUs dropped by the
// age and cap bounds.
func (t *Retainer) Expired() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expired
}

// Len returns the number of currently retained OSDUs.
func (t *Retainer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
