// Command bench is GPUnion's end-to-end benchmark: it builds and boots
// the shipped coordinator and aggregator daemons as child processes
// over loopback, with the WAL on the checkout's own filesystem and
// every shipped default left alone, drives them through two keep-alive
// connections from a fleet of fake provider agents hosted in this
// process, and reports what a user of the platform would see — and,
// with -trace 1, where inside the coordinator the time went.
//
// See README.md in this directory for the workloads, the metrics and
// how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the driver's JSON line (default: all five, human report)")
		seed    = flag.Int64("seed", 1, "seed of every random choice")
		seconds = flag.Int("seconds", 20, "measured window in seconds; warm-up, job lifetime and the rest scale with it")
		trace   = flag.Int("trace", 0, "1: also run the traced in-process composition and report the per-layer budget")
		check   = flag.Bool("check", false, "run every workload of BENCHMARK.json twice and compare each end-to-end metric against its bound")
	)
	flag.Parse()
	// The load generator shares two cores with the daemons it measures:
	// let its heap grow rather than collect every few milliseconds.
	debug.SetGCPercent(400)
	code, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// run is main without os.Exit, so deferred clean-up always happens.
func run(name string, seed int64, window time.Duration, traced, check bool) (code int, err error) {
	if window < time.Second {
		return 2, fmt.Errorf("-seconds must be at least 1")
	}
	selected := workloads
	if name != "" {
		w, ok := workloadByName(name)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q", name)
		}
		selected = []workload{w}
	}
	spec, err := loadSpec()
	if err != nil {
		return 1, err
	}
	sb, err := newSandbox()
	if err != nil {
		return 1, err
	}
	stop := sb.closeOnSignal()
	defer stop()
	// A panic anywhere below still kills the children and removes the
	// scratch directory before the process dies with the panic.
	defer sb.close()

	env := environment(sb)
	if check {
		if name == "" {
			selected = selected[:len(spec.Workloads)]
		}
		return runCheck(sb, spec, selected, seed, window)
	}
	var results []*result
	failed := false
	for _, w := range selected {
		// A traced run splits its time: the child-process run shrinks to
		// make room for the in-process passes, and sets up once, because
		// set-up time is an end-to-end metric and those come from -trace 0.
		share, setups := window, setupRepeats
		if traced {
			share, setups = scrapedShare(window), 1
		}
		res, err := runWorkload(sb, w, seed, share, setups)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			if err := runTraced(sb, w, seed, window, res); err != nil {
				return 1, fmt.Errorf("%s (traced): %w", w.name, err)
			}
		}
		printResult(os.Stdout, spec, res, traced)
		results = append(results, res)
		failed = failed || len(res.Violations) > 0
	}
	if failed {
		return 1, fmt.Errorf("correctness checks failed")
	}
	if name == "" {
		// The human report ends with everything as one JSON document.
		out, err := json.Marshal(struct {
			Environment map[string]any `json:"environment"`
			Results     []*result      `json:"results"`
		}{env, results})
		if err != nil {
			return 1, err
		}
		fmt.Println(string(out))
		return 0, nil
	}
	line, err := driverLine(spec, results[0], traced)
	if err != nil {
		return 1, err
	}
	fmt.Println(line)
	return 0, nil
}

// environment describes where the numbers were taken.
func environment(sb *sandbox) map[string]any {
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"daemon_gomaxprocs": daemonProcs,
		"go_version":        runtime.Version(),
		"wal_filesystem":    fsType(sb.work),
		"network":           "loopback (127.0.0.1), 2 keep-alive connections",
		"fsync":             "on (shipped WAL defaults)",
	}
}

// driverLine is the last line of a single-workload run: exactly the
// end-to-end metrics untraced, exactly the per-layer metrics traced.
func driverLine(spec *benchSpec, res *result, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	declared, from := spec.EndToEnd, res.E2E
	if traced {
		declared, from = spec.PerLayer, res.Layers
	}
	metrics := make(map[string]value, len(declared))
	for _, m := range declared {
		// A layer a workload never runs reports zero work.
		metrics[m.Name] = value{from[m.Name].Value, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.Violations) == 0, res.Attempted, res.Failed, metrics})
	return string(out), err
}

// printResult writes one workload's numbers, one metric per line, by
// name and with its unit and sample count.
func printResult(w *os.File, spec *benchSpec, res *result, traced bool) {
	fmt.Fprintf(w, "== %s  seed=%d  window=%gs  attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed)
	for _, m := range spec.EndToEnd {
		fmt.Fprintln(w, metricLine(m.Name, res.E2E[m.Name]))
	}
	for _, k := range sortedKeys(res.Tails) {
		fmt.Fprintf(w, "  %-38s %s\n", k, res.Tails[k])
	}
	fmt.Fprintln(w, "  -- per layer")
	for _, k := range sortedKeys(res.Layers) {
		fmt.Fprintln(w, metricLine(k, res.Layers[k]))
	}
	fmt.Fprint(w, res.Budget)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
}

func metricLine(name string, m metric) string {
	line := fmt.Sprintf("  %-38s %14.4f %-6s", name, m.Value, m.Unit)
	if m.N > 0 {
		line += fmt.Sprintf(" n=%d", m.N)
	}
	return strings.TrimRight(line, " ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
