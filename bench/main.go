// Command bench is the repository's end-to-end benchmark: it builds each
// workload in-process from the public constructors, drives it open loop,
// verifies every OSDU a sink reads and prints every metric by name. See
// README.md for the workloads, the metric definitions and the commands.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints, in the shape the
// benchmark driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics; BENCHMARK.json carries the same
// names in the same order, with their bounds.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"delivered_osdus_per_s", "1/s"},
	{"allocs_per_osdu", "count"},
	{"alloc_kb_per_osdu", "KiB"},
	{"pkts_per_osdu", "count"},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed for phase offsets and payload patterns")
		seconds = flag.Int("seconds", 15, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1: traced run, isolated layer loops and registry counts; prints the per-layer metrics")
		layer   = flag.Bool("layer", false, "run only the isolated per-layer loops")
		out     = flag.String("out", "", "also write every result to this file as JSON")
		compare = flag.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		os.Exit(1)
	}
	cfg := config{
		seed: *seed, window: time.Duration(*seconds) * time.Second,
		warm: 2 * time.Second, drain: 2 * time.Second,
		setups: 100, setupBudget: 2 * time.Second, layer: time.Second, saturate: 5 * time.Second,
	}
	if err := run(*name, cfg, *trace != 0, *layer, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, cfg config, trace, layer bool, out string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return errf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	}
	if layer {
		printMetrics("layer", layerMetrics(cfg.layer))
		return nil
	}
	todo := workloads
	if name != "all" {
		wl := findWorkload(name)
		if wl == nil {
			return errf("unknown workload %q", name)
		}
		todo = []*workload{wl}
	}
	all := make(map[string]result)
	var last result
	for _, wl := range todo {
		// The backstop behind every bounded wait: whatever hangs, the run
		// says where and ends well inside the driver's 180 s.
		watchdog := time.AfterFunc(170*time.Second, func() {
			fmt.Fprintf(os.Stderr, "bench: %s still running after 170 s; goroutines:\n", wl.name)
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			os.Exit(3)
		})
		var r result
		var err error
		if trace {
			r, err = runTraced(wl, cfg)
		} else {
			r, err = runEndToEnd(wl, cfg)
		}
		watchdog.Stop()
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		printMetrics(wl.name, r.Metrics)
		fmt.Printf("%-16s attempted %d failed %d correct %v\n", wl.name, r.Attempted, r.Failed, r.Correct)
		all[wl.name], last = r, r
	}
	if out != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(todo) == 1 {
		b, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	return nil
}

// measureOnce sets the workload up, measures, and then sets it up again
// repeatedly — cfg.setups times in all, or fewer once the repeats have
// taken cfg.setupBudget — for a steady median set-up time. The repeats come
// after the window so that their garbage cannot disturb it.
func measureOnce(wl *workload, cfg config) (*measurement, error) {
	before := runtime.NumGoroutine()
	s, took, err := open(wl, cfg)
	if err != nil {
		return nil, err
	}
	m := s.measure(cfg)
	m.leaked = leakedGoroutines(before) + m.stuck
	times := []float64{took}
	cfg.wrap, cfg.tr = nil, nil
	cfg.window = 0 // the repeats measure nothing: keep their sample buffers small
	for start := time.Now(); len(times) < cfg.setups && time.Since(start) < cfg.setupBudget; {
		s, took, err := open(wl, cfg)
		if err != nil {
			return nil, err
		}
		times = append(times, took)
		s.close()
		leakedGoroutines(before) // let teardown finish before timing the next set-up
	}
	m.connect = median(times)
	return m, nil
}

// runEndToEnd is the untraced run: the numbers a user of the system sees.
func runEndToEnd(wl *workload, cfg config) (result, error) {
	m, err := measureOnce(wl, cfg)
	if err != nil {
		return result{}, err
	}
	return result{Correct: m.correct, Attempted: m.attempted, Failed: m.failed, Metrics: endToEndMetrics(m)}, nil
}

func endToEndMetrics(m *measurement) map[string]metric {
	good := float64(m.goodWin)
	v := map[string]float64{
		"setup_s":               m.connect + m.warmed,
		"delivered_osdus_per_s": ratio(good, m.readSpan.Seconds()),
		"allocs_per_osdu":       ratio(float64(m.mallocs), good),
		"alloc_kb_per_osdu":     ratio(m.allocKB, good),
		"pkts_per_osdu":         ratio(sumSuffix(m.counters, "/sent_packets"), good),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		out[e.name] = metric{Value: v[e.name], Unit: e.unit}
	}
	return out
}

func printMetrics(scope string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-16s %-32s %14.4f %s\n", scope, n, ms[n].Value, ms[n].Unit)
	}
}
