package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cmtos/internal/cbuf"
	"cmtos/internal/clock"
	"cmtos/internal/core"
	"cmtos/internal/netem"
	"cmtos/internal/netif"
	"cmtos/internal/netif/faultnet"
	"cmtos/internal/netif/nettest"
	"cmtos/internal/qos"
	"cmtos/internal/transport"
)

// quick is a run short enough for the test suite.
func quick() config {
	return config{
		seed: 1, window: 300 * time.Millisecond, warm: 100 * time.Millisecond,
		drain: 300 * time.Millisecond, setups: 1, layer: 5 * time.Millisecond, saturate: 200 * time.Millisecond,
	}
}

// measureOrSkip runs one measurement, skipping where the sandbox forbids
// UDP sockets.
func measureOrSkip(t *testing.T, wl *workload, cfg config) *measurement {
	t.Helper()
	m, err := measureOnce(wl, cfg)
	if err != nil {
		if strings.Contains(err.Error(), "UDP sockets unavailable") {
			t.Skip(err)
		}
		t.Fatal(err)
	}
	return m
}

// TestSmoke runs every workload for a 300 ms window: every OSDU must be
// verified at every sink (see raceEnabled), every end-to-end metric must be
// positive, and teardown must leave no goroutine behind.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			m := measureOrSkip(t, wl, quick())
			if !m.correct || m.attempted == 0 || (m.failed != 0 && !raceEnabled) {
				t.Fatalf("attempted %d, failed %d, correct %v", m.attempted, m.failed, m.correct)
			}
			for name, v := range endToEndMetrics(m) {
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if m.leaked != 0 {
				t.Errorf("%d goroutines leaked", m.leaked)
			}
		})
	}
}

// TestTracedRun checks the traced path end to end on the relay topology,
// the one with every span (two leaves, so the race detector keeps up):
// each span has samples, their medians add up to the latency median, and
// every per-layer metric is reported.
func TestTracedRun(t *testing.T) {
	fanout2 := &workload{name: "fanout2", build: func(cfg config) (*world, error) { return buildFanout(cfg, 2) }}
	r, err := runTraced(fanout2, quick())
	if err != nil {
		if strings.Contains(err.Error(), "UDP sockets unavailable") {
			t.Skip(err)
		}
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
	}
	for _, p := range perLayer {
		if _, ok := r.Metrics[p.name]; !ok {
			t.Errorf("per-layer metric %s missing", p.name)
		}
	}
	for _, name := range []string{"transport.src_us", "udpnet.wire_us", "relay.hop_us", "transport.sink_us", "relay.spliced", "udpnet.pkt_ns"} {
		if !(r.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, r.Metrics[name].Value)
		}
	}
	if s := r.Metrics["harness.span_sum_ratio"].Value; s < 0.5 || s > 1.5 {
		t.Errorf("span_sum_ratio = %v: spans do not add up to the latency", s)
	}
}

// TestOracle feeds the oracle each kind of misdelivery directly: the
// transport suppresses duplicates and drops damaged TPDUs itself, so only
// a direct feed can show the oracle would catch them if it did not.
func TestOracle(t *testing.T) {
	const stream, size = 3, 64
	body := streamBody(1, stream, size)
	mk := func(seq uint64) cbuf.OSDU {
		buf := make([]byte, size)
		copy(buf[hdrLen:], body)
		putHeader(buf, 1000+int64(seq), stream, seq)
		return cbuf.OSDU{Seq: core.OSDUSeq(seq), Payload: buf}
	}
	o := oracle{stream: stream, body: body, firstGap: -1}
	for seq := uint64(0); seq < 3; seq++ {
		if due, ok := o.check(mk(seq)); !ok || due != 1000+int64(seq) {
			t.Fatalf("clean OSDU %d: due %d ok %v", seq, due, ok)
		}
	}
	if o.good != 3 || o.violations() != 0 {
		t.Fatalf("clean feed: good %d violations %d", o.good, o.violations())
	}
	o.check(mk(2)) // the OSDU just read, again
	o.check(mk(0)) // an old one, late
	o.check(mk(5)) // a gap: 3 and 4 never arrive — missing, not a violation
	flipped := mk(6)
	flipped.Payload[size-1] ^= 1
	o.check(flipped)
	header := mk(7)
	header.Payload[3] ^= 1 // due-time stamp
	o.check(header)
	wrongSeq := mk(8)
	wrongSeq.Seq = 9 // payload and transport disagree on the sequence
	o.check(wrongSeq)
	wrongStream := oracle{stream: stream + 1, body: body}
	wrongStream.check(mk(0))
	if o.firstGap != 3 {
		t.Errorf("firstGap = %d, want 3", o.firstGap)
	}
	if o.good != 4 || o.duplicate != 1 || o.outOfOrder != 1 || o.corrupt != 3 || wrongStream.corrupt != 1 {
		t.Fatalf("good %d duplicate %d outOfOrder %d corrupt %d; other stream corrupt %d",
			o.good, o.duplicate, o.outOfOrder, o.corrupt, wrongStream.corrupt)
	}
}

// faulty is a small two-host workload for the fault runs: 4 VCs at 400
// OSDU/s, no retransmission, so what the network loses the sinks miss.
var faulty = &workload{
	name: "faulty",
	build: func(cfg config) (*world, error) {
		return buildDirect(cfg, transport.Config{}, 4, qos.ClassDetectIndicate, 500, 2500*time.Microsecond, 1, 1024)
	},
}

// TestOracleUnderFaults runs that workload through a fault injector. A
// clean run fails nothing; dropped and corrupted packets are each counted
// as failed OSDUs; duplicated packets are absorbed by the transport, so
// every OSDU is still read exactly once and nothing fails.
func TestOracleUnderFaults(t *testing.T) {
	cases := []struct {
		name     string
		inject   func(*faultnet.Network)
		wantFail bool
	}{
		{"clean", func(*faultnet.Network) {}, false},
		{"drop", func(f *faultnet.Network) { f.SetPrioDrop(netif.PrioGuaranteed, 0.1) }, true},
		{"corrupt", func(f *faultnet.Network) { f.SetCorrupt(0.1) }, true},
		{"duplicate", func(f *faultnet.Network) { f.SetDuplicate(0.5) }, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := quick()
			var injectors []*faultnet.Network
			cfg.wrap = func(nw netif.Network) netif.Network {
				f := faultnet.Wrap(nw, faultnet.Options{Seed: 7})
				injectors = append(injectors, f)
				return f
			}
			s, _, err := open(faulty, cfg)
			if err != nil {
				if strings.Contains(err.Error(), "UDP sockets unavailable") {
					t.Skip(err)
				}
				t.Fatal(err)
			}
			// Faults start once every VC is connected: set-up must succeed.
			for _, f := range injectors {
				c.inject(f)
			}
			m := s.measure(cfg)
			if !m.correct {
				t.Errorf("a sink read a corrupt, duplicate or out-of-order OSDU")
			}
			if c.wantFail && m.failed == 0 {
				t.Errorf("attempted %d, failed 0: the injected fault was not counted", m.attempted)
			}
			if !c.wantFail && m.failed != 0 {
				t.Errorf("attempted %d, failed %d, want 0", m.attempted, m.failed)
			}
		})
	}
}

// TestFailedBuildTearsDown makes a set-up fail half way — every control
// packet is dropped, so the first Connect times out — and checks that it
// comes back as an error with what had been built closed again.
func TestFailedBuildTearsDown(t *testing.T) {
	cfg := quick()
	cfg.wrap = func(nw netif.Network) netif.Network {
		f := faultnet.Wrap(nw, faultnet.Options{Seed: 7})
		f.SetPrioDrop(netif.PrioControl, 1)
		return f
	}
	deaf := &workload{name: "deaf", build: func(cfg config) (*world, error) {
		tcfg := transport.Config{ConnectTimeout: 200 * time.Millisecond}
		return buildDirect(cfg, tcfg, 1, qos.ClassDetectIndicate, 500, 2500*time.Microsecond, 1, 1024)
	}}
	before := runtime.NumGoroutine()
	_, _, err := open(deaf, cfg)
	if err == nil {
		t.Fatal("set-up succeeded with every control packet dropped")
	}
	if strings.Contains(err.Error(), "UDP sockets unavailable") {
		t.Skip(err)
	}
	if n := leakedGoroutines(before); n != 0 {
		t.Errorf("%d goroutines left after the failed set-up", n)
	}
}

// TestTraceWrapperConformance runs the substrate conformance suite through
// the trace wrapper over netem: wrapped, the substrate must behave exactly
// as it does bare.
func TestTraceWrapperConformance(t *testing.T) {
	nettest.Run(t, func(t *testing.T, o nettest.Options) *nettest.Harness {
		nw := netem.New(clock.System{})
		for _, id := range []core.HostID{1, 2} {
			if err := nw.AddHost(id, nil); err != nil {
				t.Fatalf("AddHost: %v", err)
			}
		}
		link := netem.LinkConfig{Bandwidth: 50e6, QueueLen: 256}
		if o.PaceBps > 0 {
			link.Bandwidth = o.PaceBps
		}
		if o.Damage {
			link.BitErrorRate = 2e-4
		}
		if err := nw.AddLink(1, 2, link); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
		if err := nw.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		traced := newTracer(time.Second).wrap(nw)
		return &nettest.Harness{A: traced, B: traced, HostA: 1, HostB: 2, Close: traced.Close}
	})
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program in step: same
// workloads with the same reasons, same metric names and units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit, Why string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.name, wl.why)
		}
	}
	check := func(kind string, got []named, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEnd)
	check("per-layer", spec.PerLayer, perLayer)
}
