package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/lab"
	"cmtos/internal/netem"
	"cmtos/internal/orch"
	"cmtos/internal/orch/hlo"
	"cmtos/internal/qos"
	"cmtos/internal/relay"
	"cmtos/internal/resv"
	"cmtos/internal/stats"
	"cmtos/internal/transport"
	"cmtos/internal/udpnet"
)

// workload is one benchmark input: a topology, its VCs and the open-loop
// schedule the generator follows. why is the line BENCHMARK.json carries.
type workload struct {
	name  string
	why   string
	build func(cfg config) (*world, error)
	// probe adds the closed-loop saturation probe and the layer-sum check
	// to this workload's traced run.
	probe bool
}

var workloads = []*workload{
	{
		name:  "paced64-udp",
		why:   "64 CM streams each below its contract rate over loopback UDP: pacer, timer wheel and shard wake-ups dominate",
		build: buildPaced64,
	},
	{
		name:  "burst1-udp",
		why:   "one VC at 50k OSDU/s with retransmission armed: per-packet cost (cbuf, pdu, udpnet, reorder, acks) is the whole budget",
		build: buildBurst1,
		probe: true,
	},
	{
		name:  "fanout16-udp",
		why:   "source to relay to 16 leaves, 4-fragment OSDUs: the only user of relay splice, retention and segmentation",
		build: buildFanout16,
	},
	{
		name:  "orchsync-netem",
		why:   "two skewed-clock sources orchestrated at one sink over netem: udpnet bypassed, so only orch, hlo, netem and clock changes show",
		build: buildOrchSync,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

const (
	srcTSAP    = core.TSAP(10)
	sinkTSAP   = core.TSAP(20)
	ingestTSAP = core.TSAP(30)
	egressTSAP = core.TSAP(40)

	connectWait = 5 * time.Second
)

// cmSpec asks for pref OSDU/s and accepts as little as one, so an
// admission shortfall weakens the contract instead of refusing it; the
// generous ceilings keep delay and error bounds out of the negotiation.
func cmSpec(pref float64, size int) qos.Spec {
	return qos.Spec{
		Throughput:  qos.Tolerance{Preferred: pref, Acceptable: 1},
		MaxOSDUSize: size,
		Delay:       qos.CeilTolerance{Preferred: 0.001, Acceptable: 2},
		Jitter:      qos.CeilTolerance{Preferred: 0.001, Acceptable: 1},
		PER:         qos.CeilTolerance{Preferred: 0, Acceptable: 0.5},
		BER:         qos.CeilTolerance{Preferred: 0, Acceptable: 1e-2},
		Guarantee:   qos.Soft,
	}
}

// udpHost is one host's stack over real loopback sockets.
type udpHost struct {
	id  core.HostID
	nw  *udpnet.Network
	ent *transport.Entity
}

// newUDPNet opens a udpnet.Network on a loopback port of its own. Listening
// on "127.0.0.1:0" will not do: udpnet binds its receive shards with
// SO_REUSEPORT, and Linux lets such a socket autobind to a port another
// SO_REUSEPORT group of the same user already holds, after which the two
// hosts steal each other's packets (README, finding 8). A plain socket is
// never given a port in use, so one picks the port and udpnet binds it by
// number; should anything take the port in between, another is tried.
func newUDPNet(ucfg udpnet.Config) (nw *udpnet.Network, err error) {
	for try := 0; try < 8; try++ {
		probe, perr := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if perr != nil {
			return nil, perr
		}
		ucfg.Listen = probe.LocalAddr().String()
		probe.Close()
		if nw, err = udpnet.New(ucfg); err == nil {
			return nw, nil
		}
	}
	return nil, err
}

// newUDPHosts builds n hosts on 127.0.0.1, every pair peered, with the
// stats registry on (the deployed configuration). LineRate is raised from
// udpnet's 100 Mbit/s default, which would refuse these contracts at
// admission (README, finding 1).
func newUDPHosts(w *world, n int, cfg config, ucfg udpnet.Config, tcfg transport.Config) ([]*udpHost, error) {
	tcfg.Stats = w.reg
	ucfg.LineRate = 1.25e10
	hosts := make([]*udpHost, n)
	for i := range hosts {
		id := core.HostID(i + 1)
		ucfg.Local = id
		nw, err := newUDPNet(ucfg)
		if err != nil {
			return nil, fmt.Errorf("UDP sockets unavailable: %w", err)
		}
		w.closeNets = append(w.closeNets, nw.Close)
		nw.SetStats(w.reg.Scope(fmt.Sprintf("host/%d", uint32(id))))
		rm := resv.NewLocal(nw.Capacity(), nw.Route)
		nw.SetAvailable(rm.Available)
		ent, err := transport.NewEntity(id, clock.System{}, cfg.wrapNet(nw), rm, tcfg)
		if err != nil {
			return nil, err
		}
		w.closeEnts = append(w.closeEnts, ent.Close)
		hosts[i] = &udpHost{id: id, nw: nw, ent: ent}
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				if err := a.nw.AddPeer(b.id, b.nw.Addr().String()); err != nil {
					return nil, err
				}
			}
		}
	}
	return hosts, nil
}

// acceptor attaches a TSAP that hands every arriving receive VC to a
// channel, so a caller connecting VCs one at a time can pair each send
// handle with its sink.
func acceptor(e *transport.Entity, t core.TSAP) (<-chan *transport.RecvVC, error) {
	ch := make(chan *transport.RecvVC, 64) // OnRecvReady must not block; connects are sequential
	return ch, e.Attach(t, transport.UserCallbacks{
		OnRecvReady: func(rv *transport.RecvVC) { ch <- rv },
	})
}

func awaitRecv(ch <-chan *transport.RecvVC, id core.VCID) (*transport.RecvVC, error) {
	timeout := time.After(connectWait)
	for {
		select {
		case rv := <-ch:
			if rv.ID() == id {
				return rv, nil
			}
		case <-timeout:
			return nil, errf("sink handle for %v never arrived", id)
		}
	}
}

// addStream registers a connected source VC as a generated stream.
func (w *world) addStream(seed int64, send *transport.SendVC, tick time.Duration, burst, size int, phase time.Duration) *stream {
	st := &stream{idx: len(w.streams), send: send, tick: tick, burst: burst, size: size, phase: phase}
	st.buf = make([]byte, size)
	copy(st.buf[hdrLen:], streamBody(seed, st.idx, size))
	w.streams = append(w.streams, st)
	return st
}

// addSink registers a receive VC as a verified reader of st.
func (w *world) addSink(seed int64, st *stream, recv *transport.RecvVC) {
	w.sinks = append(w.sinks, &sink{
		stream: st, recv: recv,
		or: oracle{stream: uint32(st.idx), body: streamBody(seed, st.idx, st.size), firstGap: -1},
	})
}

// oneGroup puts every stream under one generator, ordered by phase.
func (w *world) oneGroup() {
	g := append([]*stream(nil), w.streams...)
	sort.Slice(g, func(i, j int) bool { return g[i].phase < g[j].phase })
	w.groups = [][]*stream{g}
}

// closeOnError tears a half-built world down when its build fails. The
// world is passed at defer time: by the time the deferred call runs,
// `return nil, err` has already cleared the named result.
func closeOnError(w *world, err *error) {
	if *err != nil {
		w.close()
	}
}

// buildDirect is the two-host topology paced64-udp and burst1-udp share:
// vcs VCs from host 1 to host 2.
func buildDirect(cfg config, tcfg transport.Config, vcs int, class qos.Class, contract float64, tick time.Duration, burst, size int) (w *world, err error) {
	w = &world{reg: stats.NewRegistry(), substrate: "udpnet"}
	defer closeOnError(w, &err)
	hosts, err := newUDPHosts(w, 2, cfg, udpnet.Config{}, tcfg)
	if err != nil {
		return nil, err
	}
	recvs, err := acceptor(hosts[1].ent, sinkTSAP)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < vcs; i++ {
		send, err := hosts[0].ent.Connect(transport.ConnectRequest{
			SrcTSAP: srcTSAP, Dest: core.Addr{Host: 2, TSAP: sinkTSAP},
			Class: class, Spec: cmSpec(contract, size),
		})
		if err != nil {
			return nil, err
		}
		rv, err := awaitRecv(recvs, send.ID())
		if err != nil {
			return nil, err
		}
		st := w.addStream(cfg.seed, send, tick, burst, size, time.Duration(rng.Int63n(int64(tick))))
		w.addSink(cfg.seed, st, rv)
		cfg.tr.route(send.ID(), st, len(w.sinks)-1, 0)
	}
	w.oneGroup()
	return w, nil
}

func buildPaced64(cfg config) (*world, error) {
	// 400 OSDU/s offered under a 500 OSDU/s contract, per VC.
	return buildDirect(cfg, transport.Config{}, 64, qos.ClassDetectIndicate, 500, 2500*time.Microsecond, 1, 1024)
}

func buildBurst1(cfg config) (*world, error) {
	// 50 OSDUs every millisecond under a 1e6 OSDU/s contract: the pacing
	// bucket is never in debt (README, finding 2). The shared buffers must
	// hold a whole burst: the default 16 slots lose OSDUs (finding 5).
	return buildDirect(cfg, transport.Config{RingSlots: 256}, 1, qos.ClassDetectCorrect, 1e6, time.Millisecond, 50, 1024)
}

func buildFanout16(cfg config) (*world, error) { return buildFanout(cfg, 16) }

// buildFanout is the relay topology: host 1 feeds a relay on host 2, whose
// splice fans every OSDU out to leaves VCs, all ending at one TSAP on host 3.
func buildFanout(cfg config, leaves int) (w *world, err error) {
	const (
		size = 4096
		tick = 2 * time.Millisecond // 500 OSDU/s
	)
	w = &world{reg: stats.NewRegistry(), substrate: "udpnet"}
	defer closeOnError(w, &err)
	// The relay emits an OSDU's 64 egress packets in one burst; udpnet's
	// default 256-deep send queue drops some of it whenever the send loop
	// runs 8 ms behind (README, finding 6).
	hosts, err := newUDPHosts(w, 3, cfg, udpnet.Config{QueueLen: 2048}, transport.Config{})
	if err != nil {
		return nil, err
	}
	node := relay.NewNode(hosts[1].ent, relay.Config{Stats: w.reg})
	splices := make(chan *relay.Splice, 1)
	if err := hosts[1].ent.Attach(ingestTSAP, transport.UserCallbacks{
		OnRecvReady: func(r *transport.RecvVC) { splices <- node.Accept(r) },
	}); err != nil {
		return nil, err
	}
	recvs, err := acceptor(hosts[2].ent, sinkTSAP)
	if err != nil {
		return nil, err
	}
	send, err := hosts[0].ent.Connect(transport.ConnectRequest{
		SrcTSAP: srcTSAP, Dest: core.Addr{Host: 2, TSAP: ingestTSAP},
		Class: qos.ClassDetectIndicate, Spec: cmSpec(1000, size),
	})
	if err != nil {
		return nil, err
	}
	var sp *relay.Splice
	select {
	case sp = <-splices:
	case <-time.After(connectWait):
		return nil, errf("relay never spliced the ingest VC")
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	st := w.addStream(cfg.seed, send, tick, 1, size, time.Duration(rng.Int63n(int64(tick))))
	cfg.tr.route(send.ID(), st, -1, 0)
	for i := 0; i < leaves; i++ {
		eg, err := sp.AddSink(egressTSAP, core.Addr{Host: 3, TSAP: sinkTSAP})
		if err != nil {
			return nil, err
		}
		rv, err := awaitRecv(recvs, eg.ID())
		if err != nil {
			return nil, err
		}
		w.addSink(cfg.seed, st, rv)
		cfg.tr.route(eg.ID(), st, len(w.sinks)-1, send.ID())
	}
	w.oneGroup()
	return w, nil
}

func buildOrchSync(cfg config) (w *world, err error) {
	const (
		rate    = 200.0
		size    = 128
		session = core.SessionID(1)
	)
	w = &world{reg: stats.NewRegistry(), substrate: "netem", pairRate: rate}
	defer closeOnError(w, &err)
	// lab.NewEnv's construction, spelled out so the trace wrapper can sit
	// between the entities and the emulated links.
	sys := clock.System{}
	nw := netem.New(sys)
	nw.SetStats(w.reg.Scope(""))
	for id := core.HostID(1); id <= 3; id++ {
		if err := nw.AddHost(id, nil); err != nil {
			return nil, err
		}
	}
	for a := core.HostID(1); a <= 3; a++ {
		for b := a + 1; b <= 3; b++ {
			if err := nw.AddLink(a, b, lab.DefaultLink()); err != nil {
				return nil, err
			}
		}
	}
	w.closeNets = append(w.closeNets, nw.Close)
	if err := nw.Start(); err != nil {
		return nil, err
	}
	rm := resv.New(nw)
	net := cfg.wrapNet(nw)
	// Sources on hosts 1 and 2 run 2 % fast and 2 % slow; the sink and the
	// orchestrating agent on host 3 keep true time.
	skews := map[core.HostID]float64{1: 1.02, 2: 0.98, 3: 1}
	ents := make(map[core.HostID]*transport.Entity)
	llos := make(map[core.HostID]*orch.LLO)
	for id := core.HostID(1); id <= 3; id++ {
		var clk clock.Clock = sys
		if skews[id] != 1 {
			clk = clock.NewSkewed(sys, skews[id], 0)
		}
		e, err := transport.NewEntity(id, clk, net, rm, transport.Config{Stats: w.reg})
		if err != nil {
			return nil, err
		}
		ents[id] = e
		llos[id] = orch.New(e)
		w.closeEnts = append(w.closeEnts, e.Close)
		w.closeOrch = append(w.closeOrch, llos[id].Close)
	}

	recvs, err := acceptor(ents[3], sinkTSAP)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var cfgs []hlo.StreamConfig
	for src := core.HostID(1); src <= 2; src++ {
		send, err := ents[src].Connect(transport.ConnectRequest{
			SrcTSAP: srcTSAP, Dest: core.Addr{Host: 3, TSAP: sinkTSAP},
			Class: qos.ClassDetectIndicate, Spec: lab.CMSpec(rate*1.3, size),
		})
		if err != nil {
			return nil, err
		}
		rv, err := awaitRecv(recvs, send.ID())
		if err != nil {
			return nil, err
		}
		// The source paces itself on its own clock: a tick of 1/rate there
		// is 1/(rate×skew) of real time.
		tick := time.Duration(float64(time.Second) / (rate * skews[src]))
		st := w.addStream(cfg.seed, send, tick, 1, size, time.Duration(rng.Int63n(int64(tick))))
		w.addSink(cfg.seed, st, rv)
		w.groups = append(w.groups, []*stream{st})
		cfg.tr.route(send.ID(), st, len(w.sinks)-1, 0)
		cfgs = append(cfgs, hlo.StreamConfig{
			Desc: orch.VCDesc{VC: send.ID(), Source: src, Sink: 3}, Rate: rate, MaxDrop: 5,
		})
	}
	agent, err := hlo.New(llos[3], sys, session, cfgs, hlo.Policy{Interval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	w.closeOrch = append([]func(){agent.Release}, w.closeOrch...)
	// Prime needs the sources writing, so it runs once traffic has started.
	w.started = func() error {
		if err := agent.Setup(); err != nil {
			return err
		}
		if err := agent.Prime(false); err != nil {
			return err
		}
		return agent.Start()
	}
	return w, nil
}
