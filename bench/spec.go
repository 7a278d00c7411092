package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// benchSpec is BENCHMARK.json: the contract between this benchmark and
// whoever runs it. The benchmark reads its metric names, units,
// directions and bounds from there, so the two cannot drift apart.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// runCheck is the evidence that the benchmark agrees with itself: every
// workload twice on the same build, and for each end-to-end metric both
// values, how far the second is from the first in the direction that
// counts as worse, and the bound it must stay within.
func runCheck(sb *sandbox, spec *benchSpec, selected []workload, seed int64, window time.Duration) (int, error) {
	code := 0
	for _, w := range selected {
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(sb, w, seed, window, setupRepeats)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", w.name, err)
			}
			for _, v := range res.Violations {
				fmt.Printf("  CHECK FAILED: %s\n", v)
				code = 1
			}
			runs[i] = res
		}
		fmt.Printf("== %s  seed=%d  window=%gs\n", w.name, seed, window.Seconds())
		fmt.Printf("  %-24s %14s %14s %9s %7s\n", "metric", "first", "second", "worse by", "bound")
		for _, m := range spec.EndToEnd {
			a, b := runs[0].E2E[m.Name].Value, runs[1].E2E[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if math.IsNaN(worse) || worse > m.Bound {
				verdict, code = "  OUTSIDE BOUND", 1
			}
			fmt.Printf("  %-24s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if code != 0 {
		return code, fmt.Errorf("check failed")
	}
	return 0, nil
}
