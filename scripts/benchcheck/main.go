// Command benchcheck is the benchmark regression gate behind
// `make bench-check`: it runs the headline benchmarks and fails when
// any of them regresses by more than the threshold against the
// recorded baseline (BENCH_baseline.json).
//
// The filter and the baseline must agree: a benchmark the filter
// selects with no baseline entry, or a baseline entry the filter
// selects that produced no measurement, fails the gate — otherwise a
// deleted or renamed gated benchmark would pass silently. Improvements
// always pass. A baseline entry that carries allocs_per_op is gated on
// that too, with no threshold and no rescaling: a single-goroutine
// benchmark's allocation count repeats exactly on any host, so one
// allocation more per operation is a change in the code. Each of the
// -count runs is a fresh `go test` process and the gate reads the
// per-benchmark median: a benchmark's slow mode (heap layout, scheduler
// placement) is fixed for a process's life, so repeats inside one
// process agree with each other and only separate processes sample it.
// The gate is meant for the stable
// single-goroutine hot-path benches — highly parallel benchmarks are
// too noisy for a hard threshold and should stay out of the filter.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// baselineFile mirrors the benchmarks section of BENCH_baseline.json.
type baselineFile struct {
	Benchmarks []struct {
		Name        string   `json:"name"`
		NsPerOp     float64  `json:"ns_per_op"`
		AllocsPerOp *float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// benchLine matches one `go test -bench -benchmem` result row, e.g.
// "BenchmarkDBJobQueueQuery-4   3867   83499 ns/op   512 B/op   7 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s(\d+) allocs/op)?`)

// calibrationBench is the fixed pure-CPU workload used to normalize
// the baseline to this machine's speed (see bench_test.go). It always
// runs in addition to the gate filter.
const calibrationBench = "BenchmarkHotPathCalibration"

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline JSON to compare against")
	bench := flag.String("bench", ".", "benchmark filter regex passed to go test -bench")
	threshold := flag.Float64("threshold", 25, "maximum tolerated ns/op regression, percent")
	benchtime := flag.String("benchtime", "300ms", "go test -benchtime (the baseline was recorded at 300ms)")
	count := flag.Int("count", 5, "fresh go test processes to run; the gate takes each benchmark's median across them")
	pkg := flag.String("pkg", ".", "package holding the benchmarks")
	flag.Parse()

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	baseAllocs := make(map[string]float64)
	for _, b := range base.Benchmarks {
		baseNs[b.Name] = b.NsPerOp
		if b.AllocsPerOp != nil {
			baseAllocs[b.Name] = *b.AllocsPerOp
		}
	}

	// One result per benchmark per process; order keeps first-seen order
	// for the report.
	samples := make(map[string][]float64)
	allocSamples := make(map[string][]float64)
	var order []string
	for i := 0; i < *count; i++ {
		cmd := exec.Command("go", "test", "-bench=("+*bench+")|"+calibrationBench+"$",
			"-benchtime="+*benchtime, "-benchmem", "-count=1", "-run=^$", *pkg)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fatal("running benchmarks: %v", err)
		}
		sc := bufio.NewScanner(&out)
		for sc.Scan() {
			m := benchLine.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			got, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				continue
			}
			if _, seen := samples[m[1]]; !seen {
				order = append(order, m[1])
			}
			samples[m[1]] = append(samples[m[1]], got)
			if allocs, err := strconv.ParseFloat(m[3], 64); err == nil {
				allocSamples[m[1]] = append(allocSamples[m[1]], allocs)
			}
		}
	}
	// The median across processes: a genuinely regressed hot path is
	// slow in most of them, while one process's unlucky layout or a
	// noisy neighbour inflates only its own sample.
	median, medianAllocs := medians(samples), medians(allocSamples)

	// Hardware normalization: scale the baseline by how this machine's
	// calibration run compares to the baseline's, so the threshold
	// measures code regressions rather than host-speed deltas.
	scale := 1.0
	if gotCal, ok := median[calibrationBench]; ok {
		if baseCal := baseNs[calibrationBench]; baseCal > 0 {
			scale = gotCal / baseCal
			fmt.Printf("  calibration: %.0f ns/op vs baseline %.0f — host speed factor %.2fx\n",
				gotCal, baseCal, scale)
		} else {
			fmt.Printf("  calibration: %.0f ns/op, no baseline entry — comparing unscaled\n", gotCal)
		}
	}

	regressed, mismatched := false, false
	compared := 0
	for _, name := range order {
		if name == calibrationBench {
			continue
		}
		got := median[name]
		want, ok := baseNs[name]
		if !ok || want <= 0 {
			fmt.Printf("  %-40s %12.0f ns/op  NO BASELINE ENTRY\n", name, got)
			mismatched = true
			continue
		}
		want *= scale
		compared++
		deltaPct := 100 * (got - want) / want
		verdict := "ok"
		if deltaPct > *threshold {
			verdict = fmt.Sprintf("REGRESSION (> %.0f%%)", *threshold)
			regressed = true
		}
		fmt.Printf("  %-40s %12.0f ns/op  baseline %12.0f  %+7.1f%%  %s\n",
			name, got, want, deltaPct, verdict)
		if wantAllocs, gated := baseAllocs[name]; gated {
			gotAllocs, measured := medianAllocs[name]
			verdict := "ok"
			if !measured || gotAllocs > wantAllocs {
				verdict = "REGRESSION (allocations are exact: no threshold)"
				regressed = true
			}
			fmt.Printf("  %-40s %12.0f allocs/op  baseline %8.0f  %s\n", "", gotAllocs, wantAllocs, verdict)
		}
	}
	// go test matches the filter against each "/"-separated element of
	// a benchmark's name; the gated baselines are top-level, so the
	// first element decides.
	filter, err := regexp.Compile(*bench)
	if err != nil {
		fatal("parsing -bench %q: %v", *bench, err)
	}
	for _, b := range base.Benchmarks {
		top, _, _ := strings.Cut(b.Name, "/")
		if _, measured := median[b.Name]; !measured && filter.MatchString(top) {
			fmt.Printf("  %-40s baseline %12.0f ns/op  NOT MEASURED (deleted or renamed?)\n", b.Name, b.NsPerOp)
			mismatched = true
		}
	}
	if compared == 0 {
		fatal("no benchmark matched both the filter %q and the baseline", *bench)
	}
	if mismatched {
		fatal("the filter %q and %s disagree on which benchmarks exist", *bench, *baselinePath)
	}
	if regressed {
		fatal("benchmark regression against %s (ns/op beyond %.0f%%, or allocs/op above the entry)", *baselinePath, *threshold)
	}
	fmt.Printf("bench-check: %d benchmarks within %.0f%% of baseline\n", compared, *threshold)
}

// medians reduces each benchmark's per-process samples to their median.
func medians(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		sort.Float64s(xs)
		out[name] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
