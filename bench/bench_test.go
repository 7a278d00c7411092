package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile quoted is the one with at least ten samples
	// beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{1, 50}, {19, 50}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileCountsFailuresAsMissing(t *testing.T) {
	tm := timings{limit: 10 * time.Millisecond}
	for i := 1; i <= 8; i++ {
		tm.add(time.Duration(i)*time.Millisecond, nil)
	}
	tm.add(time.Second, nil)                         // over the limit
	tm.add(time.Millisecond, os.ErrDeadlineExceeded) // failed outright
	if tm.attempted != 10 || tm.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", tm.attempted, tm.failed)
	}
	if got := tm.percentile(50); got != 5 {
		t.Errorf("p50 = %g ms, want 5", got)
	}
	if got := tm.percentile(80); got != 8 {
		t.Errorf("p80 = %g ms, want 8", got)
	}
	// The ninth and tenth of ten attempts failed: they rank above every
	// latency, so a percentile that reaches them reads as the limit.
	if got := tm.percentile(90); got != 10 {
		t.Errorf("p90 = %g ms, want the 10 ms limit", got)
	}
}

func TestSlicesAndHostScale(t *testing.T) {
	// Two clients, two one-second slices. In the second the host runs at
	// half speed: half the beats, each taking twice as long and costing
	// both the coordinator and the load generator twice the CPU.
	t0 := time.Now()
	loops := []*beatLoop{{}, {}}
	add := func(n int, lat time.Duration) {
		for _, l := range loops {
			for i := 0; i < n; i++ {
				l.tm.add(lat, nil)
			}
		}
	}
	// Reading the counters at a boundary takes the load generator 1 ms of
	// time and of CPU, which no slice is charged.
	boundary := func(at, gen time.Duration, acked int, coord time.Duration) mark {
		return mark{stop: stamp{t0.Add(at), gen}, start: stamp{t0.Add(at + time.Millisecond), gen + time.Millisecond},
			acked: []int{acked, acked}, coord: coord}
	}
	m0 := boundary(-time.Millisecond, 0, 0, 0)
	add(100, time.Millisecond)
	m1 := boundary(time.Second, 11*time.Millisecond, 100, 20*time.Millisecond)
	add(50, 2*time.Millisecond)
	m2 := boundary(2*time.Second+time.Millisecond, 22*time.Millisecond, 150, 40*time.Millisecond)
	fast, slow := sliceBetween(loops, m0, m1), sliceBetween(loops, m1, m2)
	if fast.rate != 200 || fast.p50 != 1 || fast.p90 != 1 || fast.coordCPU != 100 || fast.genCPU != 50 {
		t.Errorf("first slice = %+v; want 200/s, 1 ms, 1 ms, 100 us, 50 us", fast)
	}
	if slow.rate != 100 || slow.p50 != 2 || slow.coordCPU != 200 || slow.genCPU != 100 {
		t.Errorf("second slice = %+v; want 100/s, 2 ms, 200 us, 100 us", slow)
	}
	ref := 50 * time.Microsecond
	if k := hostScale(fast.genCPU, ref); k != 1 {
		t.Errorf("host scale of the first slice = %g, want 1", k)
	}
	k := hostScale(slow.genCPU, ref)
	if k != 2 || slow.coordCPU/k != fast.coordCPU || slow.p50/k != fast.p50 || slow.rate*k != fast.rate {
		t.Errorf("host scale of the second slice = %g: scaled %g us, %g ms, %g/s; want the first slice's figures",
			k, slow.coordCPU/k, slow.p50/k, slow.rate*k)
	}
	if hostScale(0, ref) != 1 || hostScale(50, 0) != 1 {
		t.Error("a slice or workload without a reference must not be scaled")
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	p := churnParams{nodes: 2000, warmup: time.Second, window: 10 * time.Second,
		submitRate: 20, beatRate: 200, departRate: 3, backlog: 16}
	a, b := scheduleText(buildSchedule(7, p)), scheduleText(buildSchedule(7, p))
	if a != b {
		t.Fatal("the same seed gave two different schedules")
	}
	if a == scheduleText(buildSchedule(8, p)) {
		t.Fatal("different seeds gave the same schedule")
	}
	ops := buildSchedule(7, p)
	counts := map[opKind]int{}
	for i, o := range ops {
		counts[o.kind]++
		if i > 0 && o.due < ops[i-1].due {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if o.due < -p.warmup || o.due >= p.window {
			t.Fatalf("operation %d due at %v, outside [-%v, %v)", i, o.due, p.warmup, p.window)
		}
	}
	if counts[opBacklog] != 16 || counts[opBeat] != 2200 || counts[opDepart] != 33 {
		t.Errorf("counts = %v, want 16 backlog, 2200 beats, 33 departs", counts)
	}
	if n := counts[opSubmit]; n != 220 {
		t.Errorf("%d submits in 11 s at 20/s, want the mean count, 220", n)
	}
}

func TestDispatcherOrderAndDrain(t *testing.T) {
	d := newDispatcher(time.Now(), []op{
		{due: 2 * time.Millisecond, kind: opBeat, node: 2},
		{due: time.Millisecond, kind: opBeat, node: 1},
		{due: time.Hour, kind: opComplete, node: 3},
	})
	for want := 1; want <= 2; want++ {
		o, ok := d.next()
		if !ok || o.node != want {
			t.Fatalf("next = %+v, %v; want node %d", o, ok, want)
		}
		d.done()
	}
	// A poll outlives the window; a completion due after it does not.
	d.push(op{due: 30 * time.Millisecond, kind: opPoll, job: "j"})
	d.drain(20 * time.Millisecond)
	d.push(op{due: time.Hour, kind: opRejoin})
	o, ok := d.next()
	if !ok || o.kind != opPoll {
		t.Fatalf("after drain next = %+v, %v; want the poll", o, ok)
	}
	d.done()
	if o, ok := d.next(); ok {
		t.Fatalf("after drain and poll next = %+v, want none", o)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP gpunion_heartbeats_total Heartbeat reports accepted for processing
# TYPE gpunion_heartbeats_total counter
gpunion_heartbeats_total 42
gpunion_store_mutations_total{shard="3",type="sample_put"} 8
gpunion_store_mutations_total{shard="4",type="sample_put"} 4
gpunion_store_mutations_total{shard="4",type="beat"} 1
gpunion_wal_fsync_seconds_bucket{le="0.001"} 7
gpunion_wal_fsync_seconds_bucket{le="+Inf"} 9
gpunion_wal_fsync_seconds_sum 0.0045
gpunion_wal_fsync_seconds_count 9
weird{msg="a \"quoted\", comma\\ and\nnewline"} 1e-3
`
	samples, err := parseProm(text)
	if err != nil {
		t.Fatal(err)
	}
	s := scrape(samples)
	if got := s.sum("gpunion_heartbeats_total", nil); got != 42 {
		t.Errorf("heartbeats = %g", got)
	}
	if got := s.sum("gpunion_store_mutations_total", map[string]string{"type": "sample_put"}); got != 12 {
		t.Errorf("sample_put over shards = %g, want 12", got)
	}
	if got := s.sum("gpunion_store_mutations_total", nil); got != 13 {
		t.Errorf("all mutations = %g, want 13", got)
	}
	if got := histMean(nil, s, "gpunion_wal_fsync_seconds"); math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("fsync mean = %g, want 0.0005", got)
	}
	last := samples[len(samples)-1]
	if last.labels["msg"] != "a \"quoted\", comma\\ and\nnewline" || last.value != 0.001 {
		t.Errorf("escaped label parsed as %q = %g", last.labels["msg"], last.value)
	}
	for _, bad := range []string{"novalue", `x{a="1} 2`, `x{a=1} 2`, "x notanumber"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) accepted", bad)
		}
	}
}

func TestParseProc(t *testing.T) {
	// A command name may contain spaces and parentheses.
	stat := "4242 (co ord) (x)) S 1 4242 4242 0 -1 4194560 1500 0 0 0 321 123 0 0 20 0 9 0 100 1000 50 18446744073709551615"
	user, system, err := parseStat(stat)
	if err != nil || user != 3210*time.Millisecond || system != 1230*time.Millisecond {
		t.Errorf("parseStat = %v, %v, %v; want 3.21s, 1.23s", user, system, err)
	}
	if _, _, err := parseStat("no command here"); err == nil {
		t.Error("parseStat accepted a line without a command")
	}
	if d, err := parseSchedstat("776363507 76337 4\n"); err != nil || d != 776363507 {
		t.Errorf("parseSchedstat = %v, %v", d, err)
	}
	if got := parseStatusHWM("Name:\tcoordinator\nVmHWM:\t   21672 kB\nVmRSS:\t   100 kB\n"); got != 21672 {
		t.Errorf("VmHWM = %d", got)
	}
	// And on the real thing: this process has used some CPU by now.
	self, err := readProc(os.Getpid())
	if err != nil || self.cpu <= 0 || self.rssKiB <= 0 {
		t.Errorf("readProc(self) = %+v, %v", self, err)
	}
}

// TestSpecMatchesCode keeps BENCHMARK.json and the benchmark in step:
// its workloads are the benchmark's first ones in the same order, names
// and units are inside the driver's limits, and every declared metric is
// one the code reports.
func TestSpecMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) < 2 || len(spec.Workloads) > len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads[:len(spec.Workloads)] {
		got := spec.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, got.Name, w.name)
		}
		if got.Why == "" || len(got.Why) > 200 || strings.Contains(got.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]specMetric{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	// Every declared metric is a name the code reports under: each is
	// written out as a string literal in one of the benchmark's files.
	var source strings.Builder
	files, _ := filepath.Glob("*.go")
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			raw, _ := os.ReadFile(f)
			source.Write(raw)
		}
	}
	for name := range seen {
		if !strings.Contains(source.String(), `"`+name+`"`) {
			t.Errorf("metric %q is declared in BENCHMARK.json and reported nowhere", name)
		}
	}
}

// miniature shrinks a workload to a fleet and a window a unit test can
// afford, keeping its traffic mix.
func miniature(t *testing.T, name string) workload {
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.nodes = 40
	return w
}

// The miniatures drive the real core, db and wal packages (fsync and
// all) through the same composition, fleet, connections and client code
// the benchmark uses, for one second each, with every decorator on. They
// exist so that a refactor of those packages cannot leave the harness
// behind unnoticed.
func TestMiniatureBeatsIdle(t *testing.T) {
	sb := &sandbox{work: t.TempDir()}
	rec := newRecorder()
	pass, err := runPass(sb, miniature(t, "beats_idle"), 1, time.Second, rec)
	if err != nil {
		t.Fatal(err)
	}
	if pass.requests < 100 {
		t.Fatalf("%d beats acknowledged in a second", pass.requests)
	}
	stats := analyse(rec.spans, rec.since)
	route := stats["POST /v1/heartbeat"]
	if route == nil || route.calls != pass.requests {
		t.Fatalf("route spans %+v, client counted %d requests", route, pass.requests)
	}
	if reads := stats["db.read"]; reads == nil || reads.reqCnt < pass.requests {
		t.Errorf("db.read spans %+v: every beat reads its node record", reads)
	}
	for name, st := range stats {
		if st.self < 0 {
			t.Errorf("%s: negative self time %v (spans mis-nested)", name, st.self)
		}
	}
	if got := delta(pass.prom[0], pass.prom[1], "gpunion_heartbeats_total", nil); int(got) != pass.requests {
		t.Errorf("coordinator counted %g beats, client %d", got, pass.requests)
	}
	rp, err := replay(rec, stats, pass.comp.secret, pass.requests)
	if err != nil || rp.decodeUS <= 0 || rp.verifyUS <= 0 {
		t.Errorf("replay = %+v, %v: decode and verify must cost something", rp, err)
	}
}

func TestMiniatureJobChurn(t *testing.T) {
	sb := &sandbox{work: t.TempDir()}
	rec := newRecorder()
	w := miniature(t, "job_churn")
	pass, err := runPass(sb, w, 1, time.Second, rec)
	if err != nil {
		t.Fatal(err)
	}
	stats := analyse(rec.spans, rec.since)
	for _, route := range []string{"POST /v1/heartbeat", "POST /v1/jobs", "GET /v1/jobs/{id}"} {
		if stats[route] == nil {
			t.Errorf("no %s request in a second of job_churn (routes seen: %v)", route, sortedKeys(stats))
		}
	}
	if stats["agent.launch_rpc"] == nil || stats["wal.hook_wait"] == nil || stats["wal.fs_sync"] == nil {
		t.Errorf("placement left no launch, hook or fsync span: %v", sortedKeys(stats))
	}
	if placed := delta(pass.prom[0], pass.prom[1], "gpunion_store_mutations_total", map[string]string{"type": "alloc_open"}); placed < 5 {
		t.Errorf("%g placements committed in a second at %g submits/s", placed, w.submitRate)
	}
}
