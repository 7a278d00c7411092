package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// --- timings ---------------------------------------------------------

// timings collects the latencies of one kind of operation. An operation
// that failed, was refused or overran its limit is counted in failed and
// has no latency: it is missing from every percentile's numerator but
// present in attempted.
type timings struct {
	limit     time.Duration
	ok        []time.Duration
	attempted int
	failed    int
	firstErr  error // why the first failure failed, for the report
}

// add records one finished operation.
func (t *timings) add(d time.Duration, err error) {
	t.attempted++
	if err == nil && t.limit > 0 && d > t.limit {
		err = fmt.Errorf("took %v, limit %v", d, t.limit)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.ok = append(t.ok, d)
}

func (t *timings) merge(o *timings) {
	t.ok = append(t.ok, o.ok...)
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// percentile returns the p-th percentile (0 < p < 100) of the
// operations attempted, in milliseconds. Failed operations rank above
// every latency, so a percentile that falls among them reads as the
// limit they missed: "at least this bad", and a number JSON can carry.
func (t *timings) percentile(p float64) float64 {
	if t.attempted == 0 {
		return 0
	}
	slices.Sort(t.ok)
	rank := int(math.Ceil(p/100*float64(t.attempted))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(t.ok) {
		worst := t.limit
		if n := len(t.ok); n > 0 {
			worst = max(worst, t.ok[n-1])
		}
		return ms(worst)
	}
	return ms(t.ok[rank])
}

// tailLadder is the set of percentiles a report may quote, in tenths of
// a percent so the rule below is exact integer arithmetic.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile is the reporting rule for a timing: the highest
// percentile of the ladder that still has at least ten samples beyond
// it. With fewer than twenty samples only the median is quoted.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a small sample (set-up repeats).
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// --- Prometheus text -------------------------------------------------

// promSample is one line of a text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format the coordinator serves on
// /v1/metrics (v0.0.4: comments, `name{k="v",...} value`).
func parseProm(text string) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value of %q: %w", line, err)
		}
		s := promSample{name: line[:sp], value: v}
		if open := strings.IndexByte(s.name, '{'); open >= 0 {
			if !strings.HasSuffix(s.name, "}") {
				return nil, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			body := s.name[open+1 : len(s.name)-1]
			s.name = s.name[:open]
			s.labels = make(map[string]string)
			for body != "" {
				eq := strings.IndexByte(body, '=')
				if eq < 0 || len(body) < eq+2 || body[eq+1] != '"' {
					return nil, fmt.Errorf("prom: label syntax in %q", line)
				}
				val, rest, err := unquoteLabel(body[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("prom: %q: %w", line, err)
				}
				s.labels[body[:eq]] = val
				body = strings.TrimPrefix(rest, ",")
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// unquoteLabel reads one "..."-quoted label value (with \\, \" and \n
// escapes) and returns what follows it.
func unquoteLabel(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
			if i == len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			if s[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), s[i+1:], nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

// scrape is one parsed exposition with the lookups the layer metrics
// need. Counters only ever grow, so a window's share is after − before.
type scrape []promSample

// sum adds every sample of a family whose labels include all of match.
func (s scrape) sum(name string, match map[string]string) float64 {
	var total float64
	for _, p := range s {
		if p.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if p.labels[k] != v {
				ok = false
			}
		}
		if ok {
			total += p.value
		}
	}
	return total
}

// delta is after.sum − before.sum.
func delta(before, after scrape, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}

// histMean is the mean of a histogram family over the window.
func histMean(before, after scrape, name string) float64 {
	n := delta(before, after, name+"_count", nil)
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum", nil) / n
}

// --- /proc -----------------------------------------------------------

// procUsage is what the kernel has charged a process so far.
type procUsage struct {
	cpu    time.Duration // on-CPU time of every thread
	user   time.Duration // utime, clock-tick resolution
	system time.Duration // stime, clock-tick resolution
	rssKiB int64         // peak resident set (VmHWM)
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux the toolchain targets.
const clockTick = 10 * time.Millisecond

// parseStat extracts utime and stime from a /proc/<pid>/stat line. The
// command name may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseStat(line string) (user, system time.Duration, err error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("proc stat: utime/stime in %q", line)
	}
	return time.Duration(ut) * clockTick, time.Duration(st) * clockTick, nil
}

// parseSchedstat extracts the on-CPU nanoseconds (first field) of a
// /proc/<pid>/task/<tid>/schedstat line.
func parseSchedstat(line string) (time.Duration, error) {
	f := strings.Fields(line)
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}

// parseStatusHWM extracts VmHWM (KiB) from /proc/<pid>/status.
func parseStatusHWM(status string) int64 {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				v, _ := strconv.ParseInt(f[0], 10, 64)
				return v
			}
		}
	}
	return 0
}

// readProc samples pid. CPU time comes from the per-thread schedstat
// files (nanoseconds); utime+stime, which tick at 10 ms, stand in where
// the kernel was built without scheduler statistics and always supply
// the user/system split.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	raw, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return u, err
	}
	if u.user, u.system, err = parseStat(string(raw)); err != nil {
		return u, err
	}
	tasks, _ := filepath.Glob(filepath.Join(dir, "task", "*", "schedstat"))
	for _, t := range tasks {
		if line, err := os.ReadFile(t); err == nil {
			if d, err := parseSchedstat(string(line)); err == nil {
				u.cpu += d
			}
		}
	}
	if u.cpu == 0 {
		u.cpu = u.user + u.system
	}
	if status, err := os.ReadFile(filepath.Join(dir, "status")); err == nil {
		u.rssKiB = parseStatusHWM(string(status))
	}
	return u, nil
}

// selfCPU is the benchmark process's own CPU time (load generator and
// fake fleet together).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files directly in dir (a WAL
// directory is flat).
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount point that prefixes it).
func fsType(path string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
