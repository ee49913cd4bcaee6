package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cmtos/internal/netif"
	"cmtos/internal/stats"
	"cmtos/internal/transport"
)

const (
	joinLimit    = 2 * time.Second // bound on every wait for the harness's own goroutines
	skewInterval = 10 * time.Millisecond
)

// config is what one run is told: the seed its inputs derive from and how
// long each phase lasts. The command line fixes everything but seed and
// window; tests shrink the rest.
type config struct {
	seed        int64
	window      time.Duration // measured window
	warm        time.Duration // traffic runs this long before the window opens
	drain       time.Duration // an OSDU not read this long after the window is failed
	setups      int           // set-ups per run at most; setup_s is their median
	setupBudget time.Duration // no further set-up starts once they have taken this long
	layer       time.Duration // length of each isolated per-layer loop
	saturate    time.Duration // window of the closed-loop saturation probe

	// wrap, when set, is interposed between every transport entity and its
	// substrate: the trace wrapper, or a fault injector in tests.
	wrap func(netif.Network) netif.Network
	tr   *tracer // stamps spans when wrap is its wrapper; nil otherwise
}

func (c config) wrapNet(nw netif.Network) netif.Network {
	if c.wrap == nil {
		return nw
	}
	return c.wrap(nw)
}

// stream is one source VC fed by the open-loop generator: every tick it
// is due burst OSDUs of size bytes.
type stream struct {
	idx   int
	send  *transport.SendVC
	tick  time.Duration // real time between ticks (the source clock's skew already applied)
	burst int
	size  int
	phase time.Duration // offset of tick 0 from the generator's start, drawn from the seed
	buf   []byte        // the OSDU as written: header rewritten per OSDU, body fixed

	written uint64 // OSDUs Write accepted; owned by the generator until it exits
}

// sink is one receive VC and the reader goroutine that verifies it.
type sink struct {
	stream *stream
	recv   *transport.RecvVC
	or     oracle

	seen atomic.Uint64 // OSDUs read so far, good or not: the drain wait polls it
	pos  atomic.Uint64 // one past the highest good sequence: media position for skew

	// Owned by the reader until it exits. Sized before the window so the
	// reader allocates nothing per OSDU.
	lat     []int64 // due → Read returned, ns, OSDUs due inside the window
	goodWin uint64  // good reads whose read time fell inside the window
	firstAt int64   // read time of the first and the last of those
	lastAt  int64
	readAt  []int64 // traced runs: read time by sequence number
	exited  bool    // set by measure once the reader is known to have returned
}

// world is one built workload: every host up and every VC connected.
type world struct {
	reg     *stats.Registry
	streams []*stream
	groups  [][]*stream // one generator goroutine each; a group's streams share one tick
	sinks   []*sink
	started func() error // runs once traffic flows, still inside set-up (orchestration)

	substrate string // "udpnet" or "netem": whose wire span a traced run reports

	// pairRate, when positive, says sinks[0] and sinks[1] play related
	// streams of this nominal OSDU rate: their skew is sampled.
	pairRate float64

	// Teardown, in this order: orchestration, then entities, then networks.
	closeOrch, closeEnts, closeNets []func()
}

// close tears the world down and returns how many teardown calls did not
// come back within joinLimit and were abandoned. Bounding them is not
// paranoia: udpnet.Network.Close can wait for ever (README, finding 7).
func (w *world) close() (stuck int) {
	for _, stage := range [][]func(){w.closeOrch, w.closeEnts, w.closeNets} {
		for _, c := range stage {
			if !doneWithin(c, joinLimit) {
				stuck++
			}
		}
	}
	return stuck
}

// session is a world with traffic running through it.
type session struct {
	w  *world
	tr *tracer

	// Window bounds in ns since epoch; MaxInt64 until set-up has ended, so
	// nothing written while priming counts as inside the window.
	winStart, winEnd atomic.Int64
	stopAt           atomic.Int64 // generators stop at the first tick due at or after this

	gens, readers sync.WaitGroup
	late          [][]int64 // per group: how late each in-window tick ran, ns
	writeNs       [][]int64 // traced runs, per group: time inside SendVC.Write, ns
}

// open builds the workload, starts readers and generators, and runs the
// workload's started hook. It returns the workload's set-up time: building
// plus the hook.
func open(wl *workload, cfg config) (*session, float64, error) {
	// Start every set-up from a collected heap, and keep the harness's own
	// buffers out of the timing: what is timed is the system's work.
	runtime.GC()
	t0 := time.Now()
	w, err := wl.build(cfg)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	tr := cfg.tr
	s := &session{w: w, tr: tr}
	s.winStart.Store(math.MaxInt64)
	s.winEnd.Store(math.MaxInt64)
	s.stopAt.Store(math.MaxInt64)
	for _, k := range w.sinks {
		k.lat = make([]int64, 0, k.stream.burst*int(cfg.window/k.stream.tick+1)*11/10+1024)
		if tr != nil {
			k.readAt = make([]int64, tr.capacityFor(k.stream))
		}
		s.readers.Add(1)
		go s.read(k)
	}
	s.late = make([][]int64, len(w.groups))
	s.writeNs = make([][]int64, len(w.groups))
	for gi, g := range w.groups {
		ticks := len(g) * int(cfg.window/g[0].tick+1)
		s.late[gi] = make([]int64, 0, ticks+1024)
		if tr != nil {
			s.writeNs[gi] = make([]int64, 0, ticks*g[0].burst+1024)
		}
		s.gens.Add(1)
		go s.generate(gi)
	}
	if w.started != nil {
		t1 := time.Now()
		if err := w.started(); err != nil {
			s.close()
			return nil, 0, err
		}
		took += time.Since(t1)
	}
	return s, took.Seconds(), nil
}

// generate is one open-loop generator: it walks the merged schedule of its
// group's streams (equal ticks, so sorting by phase once merges them) and
// writes each tick's OSDUs when the tick is due, however late the previous
// Write returned.
func (s *session) generate(gi int) {
	defer s.gens.Done()
	g := s.w.groups[gi]
	start := sinceEpoch()
	for n := 0; ; n++ {
		st := g[n%len(g)]
		due := start + int64(st.phase) + int64(n/len(g))*int64(st.tick)
		if due >= s.stopAt.Load() {
			return
		}
		now := sinceEpoch()
		if due > now {
			sleepUntil(due)
			now = sinceEpoch()
		}
		if due >= s.winStart.Load() && due < s.winEnd.Load() && len(s.late[gi]) < cap(s.late[gi]) {
			s.late[gi] = append(s.late[gi], now-due)
		}
		for b := 0; b < st.burst; b++ {
			seq := st.written
			putHeader(st.buf, due, uint32(st.idx), seq)
			var t0 int64
			if s.tr != nil {
				s.tr.due(st.idx, seq, due)
				t0 = sinceEpoch()
			}
			if _, err := st.send.Write(st.buf, 0); err != nil {
				return // the VC is gone: teardown, or a failure the oracle will count
			}
			if s.tr != nil && len(s.writeNs[gi]) < cap(s.writeNs[gi]) {
				s.writeNs[gi] = append(s.writeNs[gi], sinceEpoch()-t0)
			}
			st.written++
		}
	}
}

// read is one sink's reader: it verifies every OSDU and records latency
// for those due inside the window.
func (s *session) read(k *sink) {
	defer s.readers.Done()
	for {
		u, err := k.recv.Read()
		if err != nil {
			return
		}
		now := sinceEpoch()
		due, ok := k.or.check(u)
		k.seen.Add(1)
		if !ok {
			continue
		}
		k.pos.Store(uint64(u.Seq) + 1)
		ws, we := s.winStart.Load(), s.winEnd.Load()
		if due >= ws && due < we && len(k.lat) < cap(k.lat) {
			k.lat = append(k.lat, now-due)
		}
		if now >= ws && now < we {
			if k.goodWin == 0 {
				k.firstAt = now
			}
			k.goodWin++
			k.lastAt = now
		}
		if k.readAt != nil && uint64(u.Seq) < uint64(len(k.readAt)) {
			k.readAt[u.Seq] = now
		}
	}
}

// close stops traffic and tears the world down: entities before networks,
// every wait bounded.
func (s *session) close() {
	s.stopAt.Store(0)
	// Closing the entities fails any Write or Read still blocked.
	s.w.close()
	doneWithin(s.gens.Wait, joinLimit)
	doneWithin(s.readers.Wait, joinLimit)
}

// doneWithin runs fn and reports whether it returned within d; if not, fn
// is left running on its goroutine.
func doneWithin(fn func(), d time.Duration) bool {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// measurement is everything one measured window yields.
type measurement struct {
	w                *world // closed; kept for the tracer's post-run pairing
	winStart, winEnd int64
	connect          float64 // median build-and-connect time of the run's set-ups, seconds
	warmed           float64 // time from the end of set-up to the window's opening, seconds
	leaked           int     // goroutines left after teardown, stuck ones included

	attempted uint64 // sink deliveries owed: accepted OSDUs × fanout − source-side discards
	failed    uint64
	correct   bool // no sink read a corrupt, duplicate or out-of-order OSDU
	goodWin   uint64

	lat      []int64       // ns, all sinks, sorted
	readSpan time.Duration // first to last in-window good read, over all sinks
	cpu      time.Duration
	mallocs  uint64  // heap objects allocated over the window
	allocKB  float64 // heap bytes allocated over the window, KiB
	late     []int64 // ns, sorted
	writeNs  []int64 // ns, sorted (traced runs)
	skew     []float64
	counters map[string]float64 // registry counter deltas over the window
	histSums map[string]float64 // registry histogram sum deltas over the window
	stuck    int                // teardown calls, generators or readers that did not finish in time
}

// measure runs warm-up and the window on an open session, drains it and
// closes it.
func (s *session) measure(cfg config) *measurement {
	w := s.w
	began := sinceEpoch()
	ws := began + int64(cfg.warm)
	we := ws + int64(cfg.window)
	m := &measurement{w: w, winStart: ws, winEnd: we}
	s.winStart.Store(ws)
	s.winEnd.Store(we)
	s.stopAt.Store(we)

	time.Sleep(time.Duration(ws - sinceEpoch()))
	m.warmed = float64(sinceEpoch()-began) / 1e9
	snap0 := w.reg.Snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if w.pairRate > 0 {
		m.skew = make([]float64, 0, int(cfg.window/skewInterval)+1)
		a, b := w.sinks[0], w.sinks[1]
		for next := ws; next < we; next += int64(skewInterval) {
			time.Sleep(time.Duration(next - sinceEpoch()))
			// Media position: sequence numbers read, at the nominal rate.
			gap := float64(a.pos.Load()) - float64(b.pos.Load())
			m.skew = append(m.skew, math.Abs(gap)/w.pairRate*1e3)
		}
	}
	time.Sleep(time.Duration(we - sinceEpoch()))
	m.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024
	snap1 := w.reg.Snapshot()
	m.counters = make(map[string]float64)
	for name, v := range snap1.Counters {
		m.counters[name] = float64(v - snap0.Counters[name])
	}
	m.histSums = make(map[string]float64)
	for name, h := range snap1.Histograms {
		m.histSums[name] = h.Sum - snap0.Histograms[name].Sum
	}

	// Drain: generators stop at the window's end by themselves; a Write
	// blocked past it is failed by closing the entities below.
	gensDone := doneWithin(s.gens.Wait, joinLimit/2)
	deadline := time.Now().Add(cfg.drain)
	for gensDone && time.Now().Before(deadline) && !s.drained() {
		time.Sleep(time.Millisecond)
	}
	dropped := make([]uint64, len(w.streams))
	for i, st := range w.streams {
		dropped[i] = st.send.Dropped()
	}
	s.stopAt.Store(0)
	m.stuck = w.close()
	if !gensDone {
		gensDone = doneWithin(s.gens.Wait, joinLimit)
	}
	readersDone := doneWithin(s.readers.Wait, joinLimit)

	if !gensDone {
		// A generator still holds its stream's counters; nothing it wrote
		// can be accounted, so the run reports a single failure.
		m.stuck++
		m.attempted, m.failed = 1, 1
		return m
	}
	s.account(m, dropped, readersDone)
	return m
}

// account settles attempts against what each sink's oracle saw and gathers
// the readers' and generators' samples; every generator has exited, and
// the readers have too when readersDone.
func (s *session) account(m *measurement, dropped []uint64, readersDone bool) {
	w := s.w
	m.correct = true
	var first, last int64
	for i, k := range w.sinks {
		owed := k.stream.written - min(dropped[k.stream.idx], k.stream.written)
		m.attempted += owed
		if !readersDone {
			m.stuck++
			m.failed += owed
			continue
		}
		k.exited = true
		if k.or.good != owed || k.or.violations() != 0 {
			fmt.Fprintf(os.Stderr, "bench: sink %d of stream %d: owed %d, good %d (first gap at %d), corrupt %d, duplicate %d, out of order %d\n",
				i, k.stream.idx, owed, k.or.good, k.or.firstGap, k.or.corrupt, k.or.duplicate, k.or.outOfOrder)
		}
		m.failed += owed - min(k.or.good, owed) + k.or.duplicate
		m.correct = m.correct && k.or.violations() == 0
		if k.goodWin > 0 {
			if m.goodWin == 0 || k.firstAt < first {
				first = k.firstAt
			}
			last = max(last, k.lastAt)
		}
		m.goodWin += k.goodWin
		m.lat = append(m.lat, k.lat...)
	}
	m.readSpan = time.Duration(last - first)
	if m.attempted == 0 {
		m.attempted, m.failed = 1, 1
	}
	if m.failed > 0 {
		// Where the system says it lost them, for whoever reads the log.
		for _, suffix := range []string{"/recv/osdus_lost", "/shard/handoff_drops", "/net/recv_overruns", "/net/send_overflows", "/queue_overflows", "/dropped_packets"} {
			if n := sumSuffix(m.counters, suffix); n > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s rose by %.0f inside the window\n", suffix[1:], n)
			}
		}
	}
	sortInt64(m.lat)
	for gi := range s.late {
		m.late = append(m.late, s.late[gi]...)
		m.writeNs = append(m.writeNs, s.writeNs[gi]...)
	}
	sortInt64(m.late)
	sortInt64(m.writeNs)
}

// drained reports whether every sink has read everything its stream was
// given, less what regulation discarded at the source.
func (s *session) drained() bool {
	for _, k := range s.w.sinks {
		if k.seen.Load()+k.stream.send.Dropped() < k.stream.written {
			return false
		}
	}
	return true
}

// sleepUntil blocks the calling thread until the harness clock reads at.
// The generator sleeps in the kernel rather than in time.Sleep: the Go
// runtime parks an idle program in epoll_wait, whose timeout counts whole
// milliseconds, so time.Sleep ran a tick up to 1.1 ms late (median 0.4 ms)
// — as much as the latency being measured.
func sleepUntil(at int64) {
	for d := at - sinceEpoch(); d > 0; d = at - sinceEpoch() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sortInt64(a []int64) { sort.Slice(a, func(i, j int) bool { return a[i] < a[j] }) }

// quantile returns the q-quantile of sorted a, 0 when a is empty.
func quantile[T int64 | float64](a []T, q float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return float64(a[int(q*float64(len(a)-1))])
}

func median(a []float64) float64 {
	b := append([]float64(nil), a...)
	sort.Float64s(b)
	return quantile(b, 0.5)
}

// leakedGoroutines waits briefly for teardown to settle and returns how
// many goroutines remain above the count before set-up.
func leakedGoroutines(before int) int {
	deadline := time.Now().Add(joinLimit)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n < before {
		return 0
	}
	return n - before
}

// sumSuffix adds up every entry of m whose name ends in suffix.
func sumSuffix(m map[string]float64, suffix string) float64 {
	var t float64
	for name, v := range m {
		if strings.HasSuffix(name, suffix) {
			t += v
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func errf(format string, a ...any) error { return fmt.Errorf("bench: "+format, a...) }
