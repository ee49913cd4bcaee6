package main

import (
	"sort"
	"time"

	"cmtos/internal/qos"
	"cmtos/internal/transport"
)

// perLayer lists every per-layer metric; BENCHMARK.json carries the same
// names in the same order. A metric a workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	// Isolated calls (layer.go).
	{"cbuf.put_get_ns", "ns"},
	{"cbuf.put_get_allocs", "count"},
	{"cbuf.retain_keep_ns", "ns"},
	{"pdu.marshal_ns", "ns"},
	{"pdu.marshal_allocs", "count"},
	{"pdu.decode_ns", "ns"},
	{"pdu.decode_allocs", "count"},
	{"udpnet.pkt_ns", "ns"},
	{"udpnet.pkt_allocs", "count"},
	{"netem.pkt_ns", "ns"},
	{"rate.take_ns", "ns"},
	{"timerwheel.schedule_fire_ns", "ns"},
	{"stats.counter_inc_ns", "ns"},
	// Spans at the netif seam (trace.go), p50 over the window.
	{"transport.src_us", "us"},
	{"udpnet.wire_us", "us"},
	{"netem.wire_us", "us"},
	{"transport.sink_us", "us"},
	{"relay.hop_us", "us"},
	{"transport.write_call_ns", "ns"},
	{"harness.span_sum_ratio", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
	// Registry counter deltas over the window.
	{"udpnet.pkts_per_send_batch", "count"},
	{"udpnet.pkts_per_recv_batch", "count"},
	{"udpnet.gso_supers_per_kpkt", "count"},
	{"udpnet.send_overflows", "count"},
	{"udpnet.recv_overruns", "count"},
	{"udpnet.send_errors", "count"},
	{"transport.handoff_drops", "count"},
	{"transport.retransmits", "count"},
	{"transport.xoff_holds", "count"},
	{"transport.osdus_lost", "count"},
	{"transport.block_app_s", "s"},
	{"transport.block_proto_s", "s"},
	{"relay.spliced", "count"},
	{"relay.replayed", "count"},
	{"orch.regulates", "count"},
	{"orch.regulate_drops", "count"},
	{"orch.reports_partial", "count"},
	{"orch.skew_p50_ms", "ms"},
	{"orch.skew_p99_ms", "ms"},
	{"qos.violations", "count"},
	// The benchmark itself; the first three from the untraced run.
	{"harness.latency_p50_ms", "ms"},
	{"harness.cpu_us_per_osdu", "us"},
	{"harness.connect_s", "s"},
	{"harness.latency_p99_ms", "ms"},
	{"harness.gen_late_p99_ms", "ms"},
	{"harness.saturate_osdus_per_s", "1/s"},
	{"harness.saturate_failed", "count"},
	{"harness.layer_sum_ratio", "ratio"},
	{"harness.goroutines_leaked", "count"},
	{"harness.rss_mb", "MiB"},
}

// windowCounts are the per-layer metrics that are plain sums of registry
// counters (by name suffix) over the window.
var windowCounts = []struct{ name, suffix string }{
	{"udpnet.send_overflows", "/net/send_overflows"},
	{"udpnet.recv_overruns", "/net/recv_overruns"},
	{"udpnet.send_errors", "/net/send_errors"},
	{"transport.handoff_drops", "/shard/handoff_drops"},
	{"transport.retransmits", "/send/retransmits"},
	{"transport.xoff_holds", "/send/xoff_holds"},
	{"transport.osdus_lost", "/recv/osdus_lost"},
	{"relay.spliced", "/spliced"},
	{"relay.replayed", "/replayed"},
	{"orch.regulates", "/orch/regulates"},
	{"orch.regulate_drops", "/orch/regulate_drops"},
	{"orch.reports_partial", "/orch/reports_partial"},
	{"qos.violations", "/recv/qos_violations"},
}

// saturate is the closed-loop probe on burst1-udp's topology: a tick far
// shorter than a Write keeps the generator permanently late, so it writes
// as fast as the shared buffer accepts.
var saturate = &workload{
	name: "saturate",
	build: func(cfg config) (*world, error) {
		return buildDirect(cfg, transport.Config{RingSlots: 256}, 1, qos.ClassDetectCorrect, 1e6, 2*time.Microsecond, 1, 1024)
	},
}

// countersPerOSDU is how many registry counters one OSDU touches on
// burst1-udp's path (send: written, sent; udpnet: recv_packets,
// recv_bytes, plus the per-batch send counters; recv: delivered),
// for harness.layer_sum_ratio.
const countersPerOSDU = 6

// runTraced produces the per-layer metrics: the workload with the trace
// wrapper on (spans, registry counts), a shorter untraced run (latency and
// CPU per OSDU as a user sees them, tracing overhead), and the isolated
// loops.
func runTraced(wl *workload, cfg config) (result, error) {
	cfg.setups = 1
	traced := cfg
	traced.tr = newTracer(cfg.warm + cfg.window)
	traced.wrap = traced.tr.wrap
	m, err := measureOnce(wl, traced)
	if err != nil {
		return result{}, err
	}
	v := make(map[string]float64)

	sp := traced.tr.spans(m.w, m.winStart, m.winEnd)
	wire := m.w.substrate + ".wire_us"
	v["transport.src_us"] = quantile(sp.src, 0.5) / 1e3
	v[wire] = quantile(sp.wire, 0.5) / 1e3
	v["transport.sink_us"] = quantile(sp.sink, 0.5) / 1e3
	v["relay.hop_us"] = quantile(sp.hop, 0.5) / 1e3
	v["transport.write_call_ns"] = quantile(m.writeNs, 0.5)
	p50 := quantile(m.lat, 0.5)
	v["harness.span_sum_ratio"] = ratio((v["transport.src_us"]+v[wire]+v["transport.sink_us"]+v["relay.hop_us"])*1e3, p50)

	short := cfg
	short.window = cfg.window / 2
	short.setups = 25
	ref, err := measureOnce(wl, short)
	if err != nil {
		return result{}, err
	}
	refGood := float64(ref.goodWin)
	v["harness.latency_p50_ms"] = quantile(ref.lat, 0.5) / 1e6
	v["harness.cpu_us_per_osdu"] = ratio(float64(ref.cpu.Microseconds()), refGood)
	v["harness.connect_s"] = ref.connect
	v["harness.trace_overhead_ratio"] = ratio(p50, quantile(ref.lat, 0.5))

	c := m.counters
	pkts := sumSuffix(c, "/net/sent_packets")
	v["udpnet.pkts_per_send_batch"] = ratio(pkts, sumSuffix(c, "/net/sent_batches"))
	v["udpnet.pkts_per_recv_batch"] = ratio(sumSuffix(c, "/net/recv_packets"), sumSuffix(c, "/net/recv_batches"))
	v["udpnet.gso_supers_per_kpkt"] = ratio(1000*sumSuffix(c, "/net/gso_supers"), pkts)
	for _, wc := range windowCounts {
		v[wc.name] = sumSuffix(c, wc.suffix)
	}
	v["transport.block_app_s"] = sumSuffix(m.histSums, "/send/block_app_seconds")
	v["transport.block_proto_s"] = sumSuffix(m.histSums, "/send/block_proto_seconds")
	sort.Float64s(m.skew)
	v["orch.skew_p50_ms"] = quantile(m.skew, 0.5)
	v["orch.skew_p99_ms"] = quantile(m.skew, 0.99)

	v["harness.latency_p99_ms"] = quantile(m.lat, 0.99) / 1e6
	v["harness.gen_late_p99_ms"] = quantile(m.late, 0.99) / 1e6
	v["harness.goroutines_leaked"] = float64(m.leaked)

	layers := layerMetrics(cfg.layer)
	for name, lm := range layers {
		v[name] = lm.Value
	}
	if wl.probe {
		probe := cfg
		probe.window = cfg.saturate
		sat, err := measureOnce(saturate, probe)
		if err != nil {
			return result{}, err
		}
		v["harness.saturate_osdus_per_s"] = ratio(float64(sat.goodWin), sat.readSpan.Seconds())
		v["harness.saturate_failed"] = float64(sat.failed)
		sum := 2*v["cbuf.put_get_ns"] + v["pdu.marshal_ns"] + v["pdu.decode_ns"] + v["udpnet.pkt_ns"] +
			v["rate.take_ns"] + countersPerOSDU*v["stats.counter_inc_ns"]
		v["harness.layer_sum_ratio"] = ratio(sum, float64(ref.cpu.Nanoseconds())/refGood)
	}
	v["harness.rss_mb"] = peakRSSMB()

	out := make(map[string]metric, len(perLayer))
	for _, p := range perLayer {
		out[p.name] = metric{Value: v[p.name], Unit: p.unit}
	}
	return result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: out}, nil
}
