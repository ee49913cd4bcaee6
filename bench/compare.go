package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSpec finds BENCHMARK.json from the repository root or from bench/.
func readSpec() (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(b, &spec)
}

func readResults(path string) (map[string]result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r map[string]result
	return r, json.Unmarshal(b, &r)
}

// compareFiles prints, for every workload and end-to-end metric in both
// -out files, how much worse the second file reads than the first, and
// fails when any is worse by more than its bound in BENCHMARK.json.
func compareFiles(basePath, newPath string) error {
	spec, err := readSpec()
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(newPath)
	if err != nil {
		return err
	}
	outside := 0
	fmt.Printf("%-16s %-24s %14s %14s %8s %6s\n", "workload", "metric", filepath.Base(basePath), filepath.Base(newPath), "worse", "bound")
	for _, wl := range workloads {
		b, okB := base[wl.name]
		c, okC := cand[wl.name]
		if !okB || !okC {
			continue
		}
		for _, e := range spec.EndToEnd {
			bv, cv := b.Metrics[e.Name].Value, c.Metrics[e.Name].Value
			worse := ratio(cv-bv, bv)
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > e.Bound {
				verdict = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-16s %-24s %14.4f %14.4f %+7.1f%% %5.0f%%%s\n", wl.name, e.Name, bv, cv, 100*worse, 100*e.Bound, verdict)
		}
		if c.Failed > b.Failed {
			fmt.Printf("%-16s failed %d of %d, against %d of %d\n", wl.name, c.Failed, c.Attempted, b.Failed, b.Attempted)
		}
	}
	if outside > 0 {
		return errf("%d end-to-end metrics worse than their bound", outside)
	}
	return nil
}
