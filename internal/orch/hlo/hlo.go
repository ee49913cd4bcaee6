// Package hlo implements the upper two layers of the orchestration
// architecture (§5): the HLO agent that runs at the orchestrating node,
// computes per-interval flow-rate targets for every orchestrated VC
// against its master reference clock, drives the local LLO in the
// continuous feedback loop of Fig. 6, and applies compensation policy
// when connections persistently miss their targets — issuing Orch.Delayed
// toward slow application threads or escalating to the application's
// policy hook (which may re-negotiate QoS), exactly as §6.3.1.2
// prescribes; and the orchestrating-node selection rule of Fig. 5 (the
// node common to the greatest number of VCs).
package hlo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/orch"
	"cmtos/internal/stats"
)

// StreamConfig describes one orchestrated connection to the agent.
type StreamConfig struct {
	// Desc locates the VC's endpoints.
	Desc orch.VCDesc
	// Rate is the OSDU delivery rate the synchronisation relationship
	// requires, in OSDUs per second of master-clock time (e.g. 25 for
	// the video track and 250 for the audio track of a 10:1 lip-sync
	// ratio, §3.6).
	Rate float64
	// MaxDrop is the per-interval drop budget handed to the LLO
	// (max-drop#, Table 6); zero for loss-intolerant media.
	MaxDrop int
}

// Attribution classifies who was responsible for a missed target, from
// the blocking-time statistics (§6.3.1.2).
type Attribution uint8

// Attributions.
const (
	AttrNone      Attribution = iota // on target or no dominant cause
	AttrSourceApp                    // source application produced too slowly
	AttrSinkApp                      // sink application consumed too slowly
	AttrProtocol                     // transport throughput too low (re-negotiate)
)

var attrNames = [...]string{
	AttrNone:      "none",
	AttrSourceApp: "source-app",
	AttrSinkApp:   "sink-app",
	AttrProtocol:  "protocol",
}

// String returns the attribution's name.
func (a Attribution) String() string {
	if int(a) < len(attrNames) {
		return attrNames[a]
	}
	return fmt.Sprintf("attr(%d)", uint8(a))
}

// Policy tunes the agent's control loop. The zero value selects all
// defaults.
type Policy struct {
	// Interval is the regulation interval length (default 100ms).
	Interval time.Duration
	// MaxLagIntervals is how many consecutive lagging intervals are
	// tolerated before compensation (default 3).
	MaxLagIntervals int
	// LagToleranceOSDUs is the per-stream lag (in OSDUs, scaled by the
	// stream's rate relative to one interval) below which an interval
	// counts as on-target; expressed as a fraction of one interval's
	// OSDUs (default 0.5).
	LagToleranceOSDUs float64
	// IssueDelayed makes the agent send Orch.Delayed automatically when
	// lag is attributed to an application thread (default true; set
	// DisableDelayed to turn off).
	DisableDelayed bool
	// OnLag, if set, is invoked when a stream has lagged for
	// MaxLagIntervals intervals, with the attribution; the application
	// can re-negotiate QoS, drop a stream, or re-structure (§3.3's
	// "re-assess his priorities" example).
	OnLag func(vc core.VCID, attr Attribution, behind int)
	// SuspectIntervals is how many regulation intervals a stream may go
	// without any half-report before its remote hosts are probed with
	// Orch.Ping (default 5). A probe that fails marks the host dead: its
	// streams leave the session, the group is flagged degraded, and
	// regulation continues over the survivors.
	SuspectIntervals int
	// OnPeerFailure, if set, is invoked (once per host, off the agent
	// loop) when a participant host is declared dead, with the stream VCs
	// lost with it.
	OnPeerFailure func(host core.HostID, vcs []core.VCID)
	// OnPeerRecovery mirrors OnPeerFailure: it is invoked (off the agent
	// loop) when a previously evicted host answers an Orch.Ping again and
	// its streams have been re-admitted into the running group.
	OnPeerRecovery func(host core.HostID, vcs []core.VCID)
	// DisableReadmit turns off the recovery probing that re-admits evicted
	// hosts; the group then stays degraded until released.
	DisableReadmit bool
	// ShedIntervals is how many regulation intervals a guard forecast
	// (OrchForecast from a source's predictive QoS guard) doubles the
	// stream's MaxDrop budget for (default 4). Streams with a zero
	// MaxDrop are loss-intolerant and decline the shed request.
	ShedIntervals int
}

func (p Policy) withDefaults() Policy {
	if p.Interval <= 0 {
		p.Interval = 100 * time.Millisecond
	}
	if p.MaxLagIntervals <= 0 {
		p.MaxLagIntervals = 3
	}
	if p.LagToleranceOSDUs <= 0 {
		p.LagToleranceOSDUs = 0.5
	}
	if p.SuspectIntervals <= 0 {
		p.SuspectIntervals = 5
	}
	if p.ShedIntervals <= 0 {
		p.ShedIntervals = 4
	}
	return p
}

// StreamStatus is one stream's view in Status().
type StreamStatus struct {
	VC            core.VCID
	Rate          float64
	Target        core.OSDUSeq // last target issued
	Delivered     core.OSDUSeq // last reported delivery
	Behind        int          // OSDUs behind at the last report
	LagIntervals  int          // consecutive lagging intervals
	DroppedTotal  int          // OSDUs dropped at the source so far
	LastBlocks    orch.Report  // most recent full report
	ReportsSeen   int
	Compensations int // times compensation policy fired
	Sheds         int // guard forecasts that shifted this stream's drop budget
}

// Agent is an HLO agent for one orchestrated session. Create it on the
// orchestrating node, then Setup → Prime → Start; the agent then runs the
// Fig. 6 interval loop until Stop or Release.
type Agent struct {
	llo *orch.LLO
	clk clock.Clock
	sid core.SessionID
	pol Policy

	mu      sync.Mutex
	streams map[core.VCID]*streamState
	order   []core.VCID // stable iteration order
	epoch   time.Time   // master-clock origin of the current play-out
	ivID    core.IntervalID
	running bool
	stop    chan struct{}

	eventFn  func(orch.EventIndication)
	observer func(orch.Report)

	// Recovery state (§5's single point of control must survive losing
	// participants): per-stream report freshness, in-flight probes, and
	// the hosts already declared dead.
	lastSeen  map[core.VCID]time.Time
	probing   map[core.HostID]bool
	deadHosts map[core.HostID]bool
	degraded  bool

	// Re-admission state: what each evicted host's streams looked like at
	// eviction, and which dead hosts have a recovery probe in flight.
	evicted    map[core.HostID][]evictedStream
	recovering map[core.HostID]bool

	compensations *stats.Counter // compensation policy firings (nil = no-op)
	peerDeaths    *stats.Counter // participant hosts declared dead
	peerRecovs    *stats.Counter // evicted hosts re-admitted
}

// evictedStream preserves enough of a lost stream to re-admit it: its
// config and the delivery watermark at eviction, which re-bases the
// regulation targets so the recovered stream is not asked to make up the
// whole outage in one interval.
type evictedStream struct {
	cfg       StreamConfig
	delivered core.OSDUSeq
}

type streamState struct {
	cfg StreamConfig
	// base anchors the absolute schedule: target(t) = base + rate*t. It
	// is signed because re-admission moves it below zero whenever an
	// outage outlasted the pre-eviction delivery (the outage is forgiven,
	// not demanded back).
	base   int64
	status StreamStatus
	// shedUntil is the last interval id with a guard-boosted drop
	// budget (Policy.ShedIntervals beyond the forecast's arrival).
	shedUntil core.IntervalID
}

// New creates an agent for session sid over the given streams, driving
// the LLO co-located with it. The LLO's regulate and event handlers are
// taken over by the agent.
func New(llo *orch.LLO, clk clock.Clock, sid core.SessionID, streams []StreamConfig, pol Policy) (*Agent, error) {
	if len(streams) == 0 {
		return nil, fmt.Errorf("hlo: no streams")
	}
	a := &Agent{
		llo:     llo,
		clk:     clk,
		sid:     sid,
		pol:     pol.withDefaults(),
		streams: make(map[core.VCID]*streamState, len(streams)),

		lastSeen:   make(map[core.VCID]time.Time),
		probing:    make(map[core.HostID]bool),
		deadHosts:  make(map[core.HostID]bool),
		evicted:    make(map[core.HostID][]evictedStream),
		recovering: make(map[core.HostID]bool),

		compensations: llo.StatsScope().Counter("compensations"),
		peerDeaths:    llo.StatsScope().Counter("peer_deaths"),
		peerRecovs:    llo.StatsScope().Counter("peer_recoveries"),
	}
	for _, sc := range streams {
		if sc.Rate <= 0 {
			return nil, fmt.Errorf("hlo: stream %v has non-positive rate", sc.Desc.VC)
		}
		a.streams[sc.Desc.VC] = &streamState{
			cfg:    sc,
			status: StreamStatus{VC: sc.Desc.VC, Rate: sc.Rate},
		}
		a.order = append(a.order, sc.Desc.VC)
	}
	llo.SetRegulateHandler(a.onReport)
	llo.SetEventHandler(a.onEvent)
	llo.SetForecastHandler(a.onForecast)
	return a, nil
}

// onForecast is the guard's shed request (OrchForecast): double the
// stream's per-interval drop budget for the next Policy.ShedIntervals
// intervals, so the source sheds stale OSDUs earlier instead of
// limping into the forecast violation. Declined for unknown or
// loss-intolerant (MaxDrop 0) streams and while the loop is stopped.
func (a *Agent) onForecast(f orch.ForecastIndication) bool {
	if f.Session != a.sid {
		return false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.streams[f.VC]
	if !ok || !a.running || st.cfg.MaxDrop <= 0 {
		return false
	}
	st.shedUntil = a.ivID + core.IntervalID(a.pol.ShedIntervals)
	st.status.Sheds++
	return true
}

// Session returns the agent's session id.
func (a *Agent) Session() core.SessionID { return a.sid }

// Setup establishes the orchestration session at every participant
// (Orch.request, Table 4).
func (a *Agent) Setup() error {
	descs := make([]orch.VCDesc, 0, len(a.order))
	a.mu.Lock()
	for _, vc := range a.order {
		descs = append(descs, a.streams[vc].cfg.Desc)
	}
	a.mu.Unlock()
	return a.llo.Setup(a.sid, descs)
}

// Prime fills every sink buffer while withholding delivery so the group
// can start simultaneously (§6.2.1). flush discards stale data first.
func (a *Agent) Prime(flush bool) error {
	return a.llo.Prime(a.sid, flush)
}

// Start atomically releases the whole group and begins the regulation
// loop against the master clock (§6.2.2, Fig. 6).
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.running {
		a.mu.Unlock()
		return fmt.Errorf("hlo: already running")
	}
	a.epoch = a.clk.Now()
	for vc, st := range a.streams {
		st.base = int64(st.status.Delivered)
		st.status.LagIntervals = 0
		a.lastSeen[vc] = a.epoch
	}
	a.running = true
	a.stop = make(chan struct{})
	stop := a.stop
	a.mu.Unlock()
	// Issue the first interval's targets BEFORE releasing the group:
	// regulate and start travel the same in-order control channel, so
	// every sink's delivery pacer is installed by the time its gate
	// opens — a primed backlog is played out at the schedule, not in a
	// burst.
	a.issueTargets()
	if err := a.llo.Start(a.sid); err != nil {
		a.mu.Lock()
		a.running = false
		close(a.stop)
		a.mu.Unlock()
		return err
	}
	go a.loop(stop)
	return nil
}

// Stop freezes the group and pauses the regulation loop (§6.2.3). A
// subsequent Prime/Start resumes from the frozen position.
func (a *Agent) Stop() error {
	a.mu.Lock()
	if a.running {
		close(a.stop)
		a.running = false
	}
	a.mu.Unlock()
	return a.llo.Stop(a.sid)
}

// Release ends the session everywhere.
func (a *Agent) Release() {
	a.mu.Lock()
	if a.running {
		close(a.stop)
		a.running = false
	}
	a.mu.Unlock()
	a.llo.Release(a.sid)
}

// Add brings one more stream into the running session (Orch.Add).
func (a *Agent) Add(sc StreamConfig) error {
	if sc.Rate <= 0 {
		return fmt.Errorf("hlo: non-positive rate")
	}
	if err := a.llo.Add(a.sid, sc.Desc); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.streams[sc.Desc.VC] = &streamState{
		cfg:    sc,
		status: StreamStatus{VC: sc.Desc.VC, Rate: sc.Rate},
	}
	a.order = append(a.order, sc.Desc.VC)
	return nil
}

// Remove drops a stream from the session; the VC keeps flowing
// unregulated (Orch.Remove, §6.2.4).
func (a *Agent) Remove(vc core.VCID) error {
	if err := a.llo.Remove(a.sid, vc); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.streams, vc)
	for i, id := range a.order {
		if id == vc {
			a.order = append(a.order[:i], a.order[i+1:]...)
			break
		}
	}
	return nil
}

// RegisterEvent registers an event pattern on one stream's sink
// (Orch.Event.request, §6.3.4).
func (a *Agent) RegisterEvent(vc core.VCID, pattern core.EventPattern) error {
	return a.llo.RegisterEvent(a.sid, vc, pattern)
}

// SetEventHandler installs the Orch.Event.indication receiver.
func (a *Agent) SetEventHandler(fn func(orch.EventIndication)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.eventFn = fn
}

// SetObserver installs a tap on every Orch.Regulate.indication the agent
// consumes — for tracing and experiment instrumentation.
func (a *Agent) SetObserver(fn func(orch.Report)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observer = fn
}

func (a *Agent) onEvent(e orch.EventIndication) {
	a.mu.Lock()
	fn := a.eventFn
	a.mu.Unlock()
	if fn != nil {
		fn(e)
	}
}

// Status returns a snapshot of every stream's regulation state, in the
// order the streams were configured.
func (a *Agent) Status() []StreamStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]StreamStatus, 0, len(a.order))
	for _, vc := range a.order {
		out = append(out, a.streams[vc].status)
	}
	return out
}

// Skew returns the current maximum pairwise synchronisation error between
// streams, in master-clock time units: each stream's delivered progress
// is normalised by its rate and the spread is reported.
func (a *Agent) Skew() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	var minP, maxP float64
	first := true
	for _, st := range a.streams {
		p := (float64(st.status.Delivered) - float64(st.base)) / st.cfg.Rate
		if first {
			minP, maxP = p, p
			first = false
			continue
		}
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	if first {
		return 0
	}
	return time.Duration((maxP - minP) * float64(time.Second))
}

// loop is the Fig. 6 interval loop: issue targets, sleep one interval,
// repeat. Reports arrive asynchronously via onReport.
func (a *Agent) loop(stop chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-a.clk.After(a.pol.Interval):
		}
		a.issueTargets()
		a.checkLiveness()
		a.checkRecovery()
	}
}

// Degraded reports whether the session lost a participant host.
func (a *Agent) Degraded() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.degraded
}

// DeadHosts lists the participant hosts declared dead, sorted.
func (a *Agent) DeadHosts() []core.HostID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]core.HostID, 0, len(a.deadHosts))
	for h := range a.deadHosts {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkLiveness probes the remote hosts of streams that produced no
// half-report for SuspectIntervals regulation intervals. Probes run off
// the agent loop (Ping blocks up to ConnectTimeout) with at most one in
// flight per host.
func (a *Agent) checkLiveness() {
	a.mu.Lock()
	window := time.Duration(a.pol.SuspectIntervals) * a.pol.Interval
	now := a.clk.Now()
	self := a.llo.Host()
	suspects := make([]core.HostID, 0, 2)
	for _, vc := range a.order {
		st := a.streams[vc]
		if last, ok := a.lastSeen[vc]; !ok || now.Sub(last) <= window {
			continue
		}
		d := st.cfg.Desc
		for _, h := range []core.HostID{d.Source, d.Sink} {
			if h == self || a.deadHosts[h] || a.probing[h] {
				continue
			}
			a.probing[h] = true
			suspects = append(suspects, h)
		}
	}
	a.mu.Unlock()
	for _, h := range suspects {
		go a.probe(h)
	}
}

// probe pings one suspect host and marks it dead when the exchange
// fails outright (a Deny still proves the host is up).
func (a *Agent) probe(h core.HostID) {
	err := a.llo.Ping(h)
	a.mu.Lock()
	delete(a.probing, h)
	a.mu.Unlock()
	if err == nil {
		return
	}
	if _, denied := err.(*orch.DenyError); denied {
		return
	}
	a.markDead(h)
}

// markDead declares a participant host dead: its streams leave the
// session (at the agent and, best-effort, at surviving endpoints via
// the LLO), the group is flagged degraded, and the application hook is
// raised. Regulation simply continues over the remaining streams.
func (a *Agent) markDead(h core.HostID) {
	a.mu.Lock()
	if a.deadHosts[h] {
		a.mu.Unlock()
		return
	}
	a.deadHosts[h] = true
	a.degraded = true
	var lost []core.VCID
	kept := a.order[:0]
	for _, vc := range a.order {
		st := a.streams[vc]
		d := st.cfg.Desc
		if d.Source == h || d.Sink == h {
			lost = append(lost, vc)
			a.evicted[h] = append(a.evicted[h], evictedStream{
				cfg: st.cfg, delivered: st.status.Delivered,
			})
			delete(a.streams, vc)
			delete(a.lastSeen, vc)
			continue
		}
		kept = append(kept, vc)
	}
	a.order = kept
	pol := a.pol
	sid := a.sid
	a.mu.Unlock()
	a.peerDeaths.Inc()
	a.llo.EvictHost(sid, h)
	if pol.OnPeerFailure != nil {
		pol.OnPeerFailure(h, lost)
	}
}

// checkRecovery probes evicted hosts for signs of life, at most one probe
// per host in flight. A host that answers is re-admitted with its evicted
// streams.
func (a *Agent) checkRecovery() {
	if a.pol.DisableReadmit {
		return
	}
	a.mu.Lock()
	candidates := make([]core.HostID, 0, len(a.deadHosts))
	for h := range a.deadHosts {
		if !a.recovering[h] && len(a.evicted[h]) > 0 {
			a.recovering[h] = true
			candidates = append(candidates, h)
		}
	}
	a.mu.Unlock()
	for _, h := range candidates {
		go a.probeRecovery(h)
	}
}

// probeRecovery pings one evicted host; an answer (even a Deny — the host
// is up) triggers re-admission. The recovering flag is cleared either way
// so the next interval can retry.
func (a *Agent) probeRecovery(h core.HostID) {
	err := a.llo.Ping(h)
	if err != nil {
		if _, denied := err.(*orch.DenyError); !denied {
			a.mu.Lock()
			delete(a.recovering, h)
			a.mu.Unlock()
			return
		}
	}
	a.readmit(h)
	a.mu.Lock()
	delete(a.recovering, h)
	a.mu.Unlock()
}

// readmit reverses markDead for a host that answers again: each evicted
// stream re-enters the session (Orch.Add at both endpoints), its sink is
// primed and started individually so the rest of the group keeps flowing,
// and its regulation base is moved forward so targets resume from where
// delivery stopped instead of demanding the whole outage back at once.
// Re-admission requires the VCs to be live again at the transport layer
// (the session layer's Resume reinstates them under their old IDs); until
// then Orch.Add answers no-such-VC and the host simply stays evicted for
// a later retry.
func (a *Agent) readmit(h core.HostID) {
	a.mu.Lock()
	streams := a.evicted[h]
	sid := a.sid
	elapsed := a.clk.Since(a.epoch)
	a.mu.Unlock()
	if len(streams) == 0 {
		return
	}
	var back []core.VCID
	var readmitted []evictedStream
	for _, ev := range streams {
		vc := ev.cfg.Desc.VC
		if err := a.llo.Add(sid, ev.cfg.Desc); err != nil {
			continue // VC not resumed yet; retry on a later probe
		}
		if err := a.llo.PrimeVC(sid, vc, false); err != nil {
			continue
		}
		if err := a.llo.StartVC(sid, vc); err != nil {
			continue
		}
		back = append(back, vc)
		readmitted = append(readmitted, ev)
	}
	if len(back) == 0 {
		return
	}
	a.mu.Lock()
	now := a.clk.Now()
	for _, ev := range readmitted {
		vc := ev.cfg.Desc.VC
		st := &streamState{
			cfg:    ev.cfg,
			status: StreamStatus{VC: vc, Rate: ev.cfg.Rate, Delivered: ev.delivered},
		}
		// Re-base so the next target is ev.delivered + rate*interval: the
		// outage is forgiven, not compacted into one interval.
		st.base = int64(ev.delivered) - int64(ev.cfg.Rate*elapsed.Seconds())
		a.streams[vc] = st
		a.order = append(a.order, vc)
		a.lastSeen[vc] = now
	}
	if len(readmitted) == len(streams) {
		delete(a.evicted, h)
		delete(a.deadHosts, h)
		if len(a.deadHosts) == 0 {
			a.degraded = false
		}
	} else {
		// Partial re-admission: keep only the streams still missing.
		remain := streams[:0]
		for _, ev := range streams {
			found := false
			for _, r := range readmitted {
				if r.cfg.Desc.VC == ev.cfg.Desc.VC {
					found = true
					break
				}
			}
			if !found {
				remain = append(remain, ev)
			}
		}
		a.evicted[h] = remain
	}
	pol := a.pol
	a.mu.Unlock()
	a.peerRecovs.Inc()
	if pol.OnPeerRecovery != nil {
		pol.OnPeerRecovery(h, back)
	}
}

// issueTargets computes next-interval targets from the master clock — an
// absolute schedule, so lag in one interval is automatically compensated
// by the next interval's target rather than accumulating.
func (a *Agent) issueTargets() {
	a.mu.Lock()
	elapsed := a.clk.Since(a.epoch)
	a.ivID++
	iv := a.ivID
	type job struct {
		vc      core.VCID
		target  core.OSDUSeq
		maxDrop int
	}
	jobs := make([]job, 0, len(a.order))
	horizon := elapsed + a.pol.Interval
	for _, vc := range a.order {
		st := a.streams[vc]
		t64 := st.base + int64(st.cfg.Rate*horizon.Seconds())
		if t64 < 0 {
			t64 = 0
		}
		target := core.OSDUSeq(t64)
		st.status.Target = target
		maxDrop := st.cfg.MaxDrop
		if iv <= st.shedUntil {
			maxDrop *= 2 // guard-forecast shed window
		}
		jobs = append(jobs, job{vc, target, maxDrop})
	}
	interval := a.pol.Interval
	sid := a.sid
	a.mu.Unlock()
	for _, j := range jobs {
		_ = a.llo.Regulate(sid, j.vc, j.target, j.maxDrop, interval, iv)
	}
}

// onReport is the Orch.Regulate.indication receiver: update stream state,
// detect persistent lag, attribute it via the blocking statistics and
// compensate per policy (§6.3.1.2).
func (a *Agent) onReport(r orch.Report) {
	a.mu.Lock()
	obs := a.observer
	st, ok := a.streams[r.VC]
	if !ok {
		a.mu.Unlock()
		return
	}
	// Only a complete report proves both endpoints alive: a dead source
	// or sink still lets the surviving half produce partial reports.
	if r.Complete {
		a.lastSeen[r.VC] = a.clk.Now()
	}
	st.status.Delivered = r.Delivered
	st.status.DroppedTotal += r.Dropped
	st.status.LastBlocks = r
	st.status.ReportsSeen++
	behind := int(int64(r.Target) - int64(r.Delivered))
	st.status.Behind = behind
	tolerance := int(a.pol.LagToleranceOSDUs * st.cfg.Rate * a.pol.Interval.Seconds())
	if tolerance < 1 {
		tolerance = 1
	}
	if behind > tolerance {
		st.status.LagIntervals++
	} else {
		st.status.LagIntervals = 0
	}
	fire := st.status.LagIntervals >= a.pol.MaxLagIntervals
	var attr Attribution
	if fire {
		attr = attribute(r, a.pol.Interval)
		st.status.LagIntervals = 0
		st.status.Compensations++
		a.compensations.Inc()
	}
	pol := a.pol
	sid := a.sid
	a.mu.Unlock()

	if obs != nil {
		obs(r)
	}
	if !fire {
		return
	}
	if !pol.DisableDelayed {
		switch attr {
		case AttrSourceApp:
			_ = a.llo.Delayed(sid, r.VC, true, behind)
		case AttrSinkApp:
			_ = a.llo.Delayed(sid, r.VC, false, behind)
		}
	}
	if pol.OnLag != nil {
		pol.OnLag(r.VC, attr, behind)
	}
}

// attribute decides who caused a missed target from the §6.3.1.2 rule:
// protocol threads blocked → the application was slow producing or
// consuming; application threads blocked → the protocol's throughput was
// too low.
func attribute(r orch.Report, interval time.Duration) Attribution {
	threshold := interval / 4
	b := r.Blocks
	// Protocol-blocked evidence outranks app-blocked evidence: when an
	// application thread is slow, backpressure makes the OTHER end's
	// application block too, so the app-blocked numbers are downstream
	// symptoms. Protocol threads only block on the slow application
	// adjacent to them.
	if b.ProtoSink >= threshold && b.ProtoSink >= b.ProtoSource {
		return AttrSinkApp // sink buffer stayed full: sink app slow
	}
	if b.ProtoSource >= threshold {
		return AttrSourceApp // sender starved: source app slow
	}
	if b.AppSource >= threshold || b.AppSink >= threshold {
		return AttrProtocol // apps waited on the transport: network slow
	}
	return AttrNone
}

// SelectOrchestratingNode applies the Fig. 5 rule: the orchestrating node
// is the host common to the greatest number of the VCs to be orchestrated;
// the initial architecture requires a node common to all of them (§5
// footnote), so an error is returned when no such host exists.
func SelectOrchestratingNode(descs []orch.VCDesc) (core.HostID, error) {
	if len(descs) == 0 {
		return 0, fmt.Errorf("hlo: no connections")
	}
	count := make(map[core.HostID]int)
	for _, d := range descs {
		if d.Source == d.Sink {
			count[d.Source]++
			continue
		}
		count[d.Source]++
		count[d.Sink]++
	}
	var best core.HostID
	bestN := -1
	hosts := make([]core.HostID, 0, len(count))
	for h := range count {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		if count[h] > bestN {
			best, bestN = h, count[h]
		}
	}
	if bestN < len(descs) {
		return 0, fmt.Errorf("hlo: no node is common to all %d connections (best %v covers %d)",
			len(descs), best, bestN)
	}
	return best, nil
}

// SelectAnyNode is the relaxed form of SelectOrchestratingNode for the
// paper's future-work case (§7: "the orchestration of VCs with no common
// node"): it returns the host covering the most connections even when no
// host is common to all of them. The interval-based regulation protocol
// tolerates this — targets are OSDU counts and interval lengths, not
// absolute times, so only the (bounded) per-interval clock-rate error of
// each participant enters the loop.
func SelectAnyNode(descs []orch.VCDesc) (core.HostID, error) {
	if len(descs) == 0 {
		return 0, fmt.Errorf("hlo: no connections")
	}
	count := make(map[core.HostID]int)
	for _, d := range descs {
		if d.Source == d.Sink {
			count[d.Source]++
			continue
		}
		count[d.Source]++
		count[d.Sink]++
	}
	hosts := make([]core.HostID, 0, len(count))
	for h := range count {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	best, bestN := hosts[0], -1
	for _, h := range hosts {
		if count[h] > bestN {
			best, bestN = h, count[h]
		}
	}
	return best, nil
}
