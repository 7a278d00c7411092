package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
)

// workload is one named traffic mix. Everything that takes time scales
// with the measured window, so a shorter run keeps the shape of the
// 20-second one the numbers below describe.
type workload struct {
	name string
	kind workloadKind
	// nodes is the fleet size.
	nodes int
	// beats workloads
	telemetry bool // every beat carries one reading per device
	relayed   bool // beats go through cmd/aggregator
	perMs     int  // paced: beats per millisecond per client (0: closed loop)
	// genCPU is what one beat of this workload cost the load generator on
	// the host the benchmark was defined on (see hostScale; zero: the
	// workload is reported as measured). cpuBound says that an
	// acknowledgement waits for nothing but CPU and wake-ups, no timer and
	// no disk, so its latency scales with the host like CPU does.
	genCPU   time.Duration
	cpuBound bool
	// open-loop workloads, per second
	submitRate, beatRate, departRate float64
	backlog                          int
	replicated                       bool // leader + standby, leader killed mid-window
}

type workloadKind int

const (
	closedBeats workloadKind = iota // 2 clients, next beat when the last is acked
	openChurn                       // one merged schedule, each op timed from when it was due
)

// The five workloads; why each exists is recorded in README.md.
// BENCHMARK.json lists the ones whose end-to-end metrics repeat on a
// shared host closely enough to carry a regression bound (a test keeps
// its list a leading part of this one); the rest run from here all the
// same and report the same metrics, for side-by-side comparisons.
var workloads = []workload{
	{name: "beats_idle", kind: closedBeats, nodes: 2000, genCPU: 35 * time.Microsecond, cpuBound: true},
	{name: "beats_telemetry", kind: closedBeats, nodes: 2000, telemetry: true, genCPU: 78 * time.Microsecond},
	{name: "beats_relayed", kind: closedBeats, nodes: 2000, relayed: true, perMs: 5},
	{name: "job_churn", kind: openChurn, nodes: 2000,
		submitRate: 40, beatRate: 200, departRate: 6, backlog: 16},
	{name: "leader_kill", kind: openChurn, nodes: 500, replicated: true,
		submitRate: 40, beatRate: 100},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Shape of a run relative to its measured window W (20 s in the issue).
const (
	setupRepeats = 3 // set-ups per run; the median is reported
	// aggregatorFlush is the relay's window. One forward of a 2000-node
	// window costs the coordinator about 0.2 s (four coalescer flushes of
	// sixteen serial group commits each), so a shorter window would have
	// forwards overlapping for good.
	aggregatorFlush = 250 * time.Millisecond
	leaseTTLSec     = 1
)

func warmupOf(w time.Duration) time.Duration      { return w / 10 }     // 2 s of 20
func jobLifetimeOf(w time.Duration) time.Duration { return w * 3 / 20 } // 3 s of 20
func rejoinDelayOf(w time.Duration) time.Duration { return w / 5 }      // 4 s of 20
func leaderKillAt(w time.Duration) time.Duration  { return w / 4 }      // 5 s of 20

// Limits: an operation slower than its limit counts as failed.
const (
	beatLimit      = time.Second
	submitLimit    = 2 * time.Second
	migrationLimit = 5 * time.Second
	failoverLimit  = 10 * time.Second
	// coalesceLag is how long an acked no-op beat may sit in the
	// coordinator's buffer before it reaches the store (interval/4 at the
	// shipped 10 s interval); stalenessSlack covers scheduling noise.
	coalesceLag    = 2500 * time.Millisecond
	stalenessSlack = 500 * time.Millisecond
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing (0 where it has no meaning).
	N int `json:"n,omitempty"`
}

// result is everything one untraced run of one workload produced.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	E2E       map[string]metric `json:"end_to_end"`
	Layers    map[string]metric `json:"per_layer"`
	// Tails quotes each timing by the reporting rule: the highest
	// percentile with at least ten samples beyond it.
	Tails map[string]string `json:"tails"`
	// Budget is the per-layer table of the traced run, when there was one.
	Budget string `json:"budget,omitempty"`
	// Violations lists failed correctness checks; any entry fails the run.
	Violations []string `json:"violations,omitempty"`
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// stack is the system under test for one run: the daemons of the
// workload's topology and the connections that drive them.
type stack struct {
	sb      *sandbox
	w       workload
	fl      *fleet
	base    string // scratch directory of this stack
	walDir  string
	coord   *daemon // the serving coordinator (the leader when replicated)
	standby *daemon
	relay   *daemon
	// coordArgs restart the coordinator as it was started.
	coordAddr string
	coordArgs []string
	leaseFile string
	load      []*conn // the keep-alive connections all traffic uses: two
	ctl       *conn   // listings, outside the measured path
	// killed is the leader's last view, taken just before a leader kill.
	killed *coordView
}

const (
	leaderID  = "coord-a"
	standbyID = "coord-b"
)

// bringUp boots the workload's daemons on fresh directories and
// registers the whole fleet through the two load connections. The time
// it returns is the set-up metric: boot plus registration, no build.
func bringUp(sb *sandbox, w workload, fl *fleet) (*stack, time.Duration, error) {
	start := time.Now()
	base, err := sb.dir(w.name)
	if err != nil {
		return nil, 0, err
	}
	s := &stack{sb: sb, w: w, fl: fl, base: base, walDir: filepath.Join(base, "wal")}
	if s.coordAddr, err = freeAddr(); err != nil {
		return nil, 0, err
	}
	if w.replicated {
		s.leaseFile = filepath.Join(base, "lease.json")
		s.coordArgs = []string{"-mode", "leader", "-replica-id", leaderID,
			"-lease-file", s.leaseFile, "-lease-ttl-sec", strconv.Itoa(leaseTTLSec)}
	}
	if s.coord, err = sb.coordinator(leaderID, s.coordAddr, s.walDir, s.coordArgs...); err != nil {
		return nil, 0, err
	}
	if w.replicated {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		s.standby, err = sb.coordinator(standbyID, addr, filepath.Join(base, "wal-standby"),
			"-mode", "standby", "-replica-id", standbyID, "-lease-file", s.leaseFile,
			"-lease-ttl-sec", strconv.Itoa(leaseTTLSec), "-follow-dir", s.walDir)
		if err != nil {
			return nil, 0, err
		}
	}
	target := s.coord.url
	if w.relayed {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		if s.relay, err = sb.aggregator("relay", addr, s.coord.url, aggregatorFlush); err != nil {
			return nil, 0, err
		}
		target = s.relay.url
	}
	s.ctl = dial(s.coord.url)
	// Registration always goes to the coordinator: the relay serves
	// heartbeats only.
	s.load = []*conn{dial(s.coord.url), dial(s.coord.url)}
	if err := s.registerAll(); err != nil {
		return nil, 0, err
	}
	for _, c := range s.load {
		c.retarget(target)
	}
	return s, time.Since(start), nil
}

// registerAll registers every node, half the fleet per connection.
func (s *stack) registerAll() error {
	errs := make(chan error, len(s.load))
	for ci, c := range s.load {
		go func() {
			for i := ci; i < len(s.fl.nodes); i += len(s.load) {
				if err := c.register(s.fl.nodes[i]); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	var first error
	for range s.load {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// tearDown stops the stack's daemons and fleet and deletes its directories.
func (s *stack) tearDown() {
	s.fl.close()
	for _, c := range s.load {
		c.close()
	}
	s.ctl.close()
	for _, d := range []*daemon{s.relay, s.standby, s.coord} {
		if d != nil {
			d.kill()
		}
	}
	_ = os.RemoveAll(s.base)
}

// runWorkload is one untraced run: set up (several times; the last
// stack is the one measured), warm up, measure, check, kill, recover.
func runWorkload(sb *sandbox, w workload, seed int64, window time.Duration, setups int) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: window.Seconds(),
		E2E: map[string]metric{}, Layers: map[string]metric{}, Tails: map[string]string{}}
	rng := newRand(seed)

	// The load generator and the fleet run on one P while the daemons are
	// measured. They need well under a core, and a generator spread over
	// every core shares each of them with the daemons by turns: on a
	// two-core host the relayed beat rate then wanders between two modes
	// (about 16k and 24k beats/s) for seconds at a time, depending on
	// which threads the kernel happens to have put together.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var s *stack
	var tookSetup []float64
	for i := 0; i < setups; i++ {
		if s != nil {
			s.tearDown()
		}
		// A fresh fleet per set-up: registration meets empty node state.
		fl, err := newFleet(w.nodes, newRand(rng.Int63()))
		if err != nil {
			return nil, err
		}
		var took time.Duration
		if s, took, err = bringUp(sb, w, fl); err != nil {
			return nil, err
		}
		tookSetup = append(tookSetup, took.Seconds())
	}
	defer s.tearDown()
	res.E2E["setup_s"] = metric{Value: median(tookSetup), Unit: "s", N: len(tookSetup)}

	var err error
	switch w.kind {
	case closedBeats:
		err = s.runBeats(res, rng, window)
	case openChurn:
		err = s.runChurn(res, rng.Int63(), window)
	}
	if err != nil || len(res.Violations) > 0 {
		// Whatever went wrong, the daemons' side of the story is about
		// to be deleted with the scratch directory.
		for _, d := range []*daemon{s.coord, s.standby, s.relay} {
			if d != nil {
				fmt.Fprintln(os.Stderr, d.logTail(15))
			}
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// --- scrapes ---------------------------------------------------------

// coordView is one coordinator process seen from outside: its metrics
// exposition and what the kernel has charged it.
type coordView struct {
	prom  scrape
	usage procUsage
}

func viewOf(d *daemon) (coordView, error) {
	var v coordView
	c := dial(d.url)
	defer c.close()
	text, err := c.metricsText()
	if err != nil {
		return v, fmt.Errorf("scraping %s: %w", d.name, err)
	}
	if v.prom, err = parseProm(text); err != nil {
		return v, err
	}
	v.usage, err = readProc(d.pid())
	return v, err
}

// snapshot is the outside view of the stack at one instant: everything
// the layer metrics are differences of. With a standby, the coordinator
// tier is the sum of both replicas (a killed leader contributes what it
// had reached just before the kill), so a delta covers the work of
// whichever replica did it.
type snapshot struct {
	at       time.Time
	prom     scrape
	coord    procUsage
	relay    procUsage
	relayed  map[string]uint64 // aggregator /v1/stats
	walBytes int64
	self     time.Duration
	launches int64
	reacks   int64
	dups     int64
	refusals int64
}

func (s *stack) snapshot() (snapshot, error) {
	snap := snapshot{at: time.Now(), self: selfCPU(),
		walBytes: dirBytes(s.walDir) + dirBytes(filepath.Join(s.base, "wal-standby")),
		launches: s.fl.launches.Load(), reacks: s.fl.reacks.Load(), dups: s.fl.duplicates.Load(),
		refusals: s.fl.refusals.Load()}
	views := []coordView{}
	if s.killed != nil {
		views = append(views, *s.killed)
	} else {
		v, err := viewOf(s.coord)
		if err != nil {
			return snap, err
		}
		views = append(views, v)
	}
	if s.standby != nil {
		v, err := viewOf(s.standby)
		if err != nil {
			return snap, err
		}
		views = append(views, v)
	}
	for _, v := range views {
		snap.prom = append(snap.prom, v.prom...)
		snap.coord.cpu += v.usage.cpu
		snap.coord.user += v.usage.user
		snap.coord.system += v.usage.system
		snap.coord.rssKiB = max(snap.coord.rssKiB, v.usage.rssKiB)
	}
	if s.relay != nil {
		var err error
		if snap.relay, err = readProc(s.relay.pid()); err != nil {
			return snap, err
		}
		c := dial(s.relay.url)
		defer c.close()
		if err := c.call("GET", "/v1/stats", nil, &snap.relayed); err != nil {
			return snap, fmt.Errorf("scraping aggregator: %w", err)
		}
	}
	return snap, nil
}

// layerMetrics turns two snapshots into the scraped per-layer numbers.
// ops is the number of acked operations the window contained.
func (s *stack) layerMetrics(res *result, a, b snapshot, ops int) {
	L := res.Layers
	per := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}
	fsyncs := delta(a.prom, b.prom, "gpunion_wal_fsync_seconds_count", nil)
	groups := delta(a.prom, b.prom, "gpunion_wal_group_batch_size_count", nil)
	L["wal.fsyncs_per_op"] = metric{Value: per(fsyncs), Unit: "count"}
	L["wal.fsync_ms_mean"] = metric{Value: 1000 * histMean(a.prom, b.prom, "gpunion_wal_fsync_seconds"), Unit: "ms", N: int(fsyncs)}
	L["wal.append_wait_ms_mean"] = metric{Value: 1000 * histMean(a.prom, b.prom, "gpunion_wal_append_seconds"), Unit: "ms",
		N: int(delta(a.prom, b.prom, "gpunion_wal_append_seconds_count", nil))}
	L["wal.records_per_group"] = metric{Value: histMean(a.prom, b.prom, "gpunion_wal_group_batch_size"), Unit: "count", N: int(groups)}
	L["wal.bytes_per_op"] = metric{Value: per(float64(b.walBytes - a.walBytes)), Unit: "bytes"}

	const muts = "gpunion_store_mutations_total"
	L["db.mutations_per_op"] = metric{Value: per(delta(a.prom, b.prom, muts, nil)), Unit: "count"}
	for name, t := range map[string]db.MutationType{
		"db.node_put_per_op": db.MutNodePut, "db.job_put_per_op": db.MutJobPut,
		"db.alloc_open_per_op": db.MutAllocOpen, "db.alloc_close_per_op": db.MutAllocClose,
		"db.sample_put_per_op": db.MutSamplePut, "db.beat_per_op": db.MutBeat,
	} {
		L[name] = metric{Value: per(delta(a.prom, b.prom, muts, map[string]string{"type": string(t)})), Unit: "count"}
	}
	L["core.coalesce_batch_mean"] = metric{Value: histMean(a.prom, b.prom, "gpunion_heartbeat_coalesce_batch_size"), Unit: "count",
		N: int(delta(a.prom, b.prom, "gpunion_heartbeat_coalesce_batch_size_count", nil))}

	decisions := delta(a.prom, b.prom, "gpunion_scheduling_latency_seconds_count", nil)
	L["scheduler.decision_us_mean"] = metric{Value: 1e6 * histMean(a.prom, b.prom, "gpunion_scheduling_latency_seconds"), Unit: "us", N: int(decisions)}
	L["scheduler.batch_fill_mean"] = metric{Value: histMean(a.prom, b.prom, "gpunion_sched_batch_fill"), Unit: "count",
		N: int(delta(a.prom, b.prom, "gpunion_sched_batch_fill_count", nil))}
	hits := delta(a.prom, b.prom, "gpunion_sched_pool_hits_total", nil)
	misses := delta(a.prom, b.prom, "gpunion_sched_pool_misses_total", nil)
	L["scheduler.pool_hit_share"] = metric{Value: share(hits, hits+misses), Unit: "share", N: int(hits + misses)}

	launches := float64(b.launches - a.launches)
	useful := launches - float64(b.dups-a.dups)
	attempts := launches + float64(b.reacks-a.reacks) + float64(b.refusals-a.refusals)
	L["agent.launches_per_placed_job"] = metric{Value: share(attempts, useful), Unit: "count", N: int(attempts)}
	L["agent.duplicate_placements"] = metric{Value: float64(b.dups - a.dups), Unit: "count"}

	if s.relay != nil {
		folded := float64(b.relayed["folded_beats"] - a.relayed["folded_beats"])
		passed := float64(b.relayed["passthrough"] - a.relayed["passthrough"])
		forwards := float64(b.relayed["forwards"] - a.relayed["forwards"])
		L["aggregator.forwards_per_kbeat"] = metric{Value: share(1000*forwards, folded+passed), Unit: "count", N: int(forwards)}
		L["aggregator.passthrough_share"] = metric{Value: share(passed, folded+passed), Unit: "share"}
		L["proc.agg_cpu_us_per_beat"] = metric{Value: per(float64((b.relay.cpu - a.relay.cpu).Microseconds())), Unit: "us"}
	}

	cpu := b.coord.cpu - a.coord.cpu
	ticks := (b.coord.user - a.coord.user) + (b.coord.system - a.coord.system)
	L["proc.coord_cpu_share"] = metric{Value: cpu.Seconds() / b.at.Sub(a.at).Seconds(), Unit: "cores"}
	L["proc.coord_sys_share"] = metric{Value: share(float64(b.coord.system-a.coord.system), float64(ticks)), Unit: "share"}
	L["proc.coord_peak_rss_mb"] = metric{Value: float64(b.coord.rssKiB) / 1024, Unit: "MiB"}
	L["proc.loadgen_cpu_s"] = metric{Value: (b.self - a.self).Seconds(), Unit: "s"}
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// --- closed-loop beats -----------------------------------------------

// beatLoop is one client of a beats workload: it walks its half of the
// fleet in a seeded order, sending the next beat when the last is acked.
type beatLoop struct {
	c     *conn
	nodes []*node
	perMs int // beats per millisecond when paced, 0 for a closed loop
	next  int
	log   []beatRecord // every acknowledged beat, in order
	tm    timings
	nack  int // replies that were not Acknowledged
	err   error
}

// beatRecord is one acknowledged beat: who, when sent, when acked. Times
// are offsets from processStart, which keeps a hundred thousand of
// these free of pointers for the collector to chase.
type beatRecord struct {
	node        int32
	sent, acked time.Duration
}

var processStart = time.Now()

// beatLogRoom is the room a client's beat log starts with: a window of
// the fastest workload, so the log never grows mid-measurement.
const beatLogRoom = 1 << 19

func (l *beatLoop) run(until time.Time, telemetry bool) {
	if l.log == nil {
		l.log = make([]beatRecord, 0, beatLogRoom)
		l.tm.ok = make([]time.Duration, 0, beatLogRoom)
	}
	tick := time.Now()
	for k := 0; time.Now().Before(until); k++ {
		if l.perMs > 0 && k%l.perMs == 0 {
			// Paced: this millisecond's beats go out back to back, then the
			// client waits for the next millisecond. A client that has
			// fallen behind (a stall) does not wait until it has caught up.
			tick = tick.Add(time.Millisecond)
			time.Sleep(time.Until(tick))
		}
		n := l.nodes[l.next%len(l.nodes)]
		l.next++
		sent := time.Now()
		resp, err := l.c.heartbeat(n, telemetry)
		acked := time.Now()
		if err == nil && !resp.Acknowledged {
			l.nack++
			err = errors.New("beat not acknowledged")
		}
		if err != nil && l.err == nil {
			l.err = fmt.Errorf("beat of %s: %w", n.id, err)
		}
		l.tm.add(acked.Sub(sent), err)
		if err == nil {
			l.log = append(l.log, beatRecord{int32(n.index), sent.Sub(processStart), acked.Sub(processStart)})
		}
	}
}

func (s *stack) runBeats(res *result, rng *rand.Rand, window time.Duration) error {
	order := rng.Perm(len(s.fl.nodes))
	loops := make([]*beatLoop, len(s.load))
	for i := range loops {
		loops[i] = &beatLoop{c: s.load[i], perMs: s.w.perMs}
	}
	for i, idx := range order {
		l := loops[i%len(loops)]
		l.nodes = append(l.nodes, s.fl.nodes[idx])
	}
	phase := func(d time.Duration) {
		until := time.Now().Add(d)
		var wg sync.WaitGroup
		for _, l := range loops {
			wg.Add(1)
			go func() { defer wg.Done(); l.run(until, s.w.telemetry) }()
		}
		wg.Wait()
	}
	phase(warmupOf(window))
	for _, l := range loops {
		l.tm = timings{limit: beatLimit, ok: l.tm.ok[:0]}
		l.nack, l.err = 0, nil
	}
	before, err := s.snapshot()
	if err != nil {
		return err
	}
	// The window is measured slice by slice, with nothing in flight at a
	// boundary: that is where the processes' CPU counters are read.
	var slices []sliceStats
	var measured time.Duration
	from, err := s.mark(loops)
	if err != nil {
		return err
	}
	n := max(1, int(window/slice))
	for i := 0; i < n; i++ {
		phase(window / time.Duration(n))
		to, err := s.mark(loops)
		if err != nil {
			return err
		}
		slices = append(slices, sliceBetween(loops, from, to))
		measured += to.stop.at.Sub(from.start.at)
		from = to
	}
	after, err := s.snapshot()
	if err != nil {
		return err
	}
	beats := timings{limit: beatLimit}
	var log []beatRecord
	for _, l := range loops {
		log = append(log, l.log...)
		beats.merge(&l.tm)
		if l.nack > 0 {
			res.violate("%d beat replies were not Acknowledged", l.nack)
		}
		if l.err != nil {
			res.violate("first beat error: %v", l.err)
		}
	}
	acked := len(beats.ok)
	s.beatsReport(res, &beats, slices, float64(acked)/measured.Seconds())
	s.layerMetrics(res, before, after, acked)

	// Correctness of the window.
	if s.w.telemetry {
		want := float64(acked * gpusPerNode * 2)
		if got := delta(before.prom, after.prom, "gpunion_store_mutations_total",
			map[string]string{"type": string(db.MutSamplePut)}); got != want {
			res.violate("sample_put mutations = %v, want 4 x %d acked telemetry beats = %v", got, acked, want)
		}
	}
	if s.relay != nil {
		folded := after.relayed["folded_beats"] - before.relayed["folded_beats"]
		if int(folded) != acked {
			res.violate("relay folded_beats = %d, acked beats = %d", folded, acked)
		}
		if n := after.relayed["forward_errors"]; n != 0 {
			res.violate("relay forward_errors = %d", n)
		}
		// The last window is still open in the relay; let it go upstream.
		time.Sleep(2 * aggregatorFlush)
	}
	if err := s.checkLiveness(res, log); err != nil {
		return err
	}
	return s.killAndRecover(res)
}

// slice is the length of the pieces a beats window is cut into.
const slice = time.Second

// mark is a slice boundary: the slice before it ends at stop, the one
// after it begins at start, and the counters are read in between, which
// costs the load generator CPU that belongs to neither slice.
type mark struct {
	stop, start stamp
	acked       []int         // per client: beats acknowledged so far
	coord       time.Duration // CPU the coordinator has used
}

// stamp is the load generator's clock and CPU clock at one instant.
type stamp struct {
	at  time.Time
	gen time.Duration
}

func stampNow() stamp { return stamp{time.Now(), selfCPU()} }

func (s *stack) mark(loops []*beatLoop) (mark, error) {
	m := mark{stop: stampNow()}
	for _, l := range loops {
		m.acked = append(m.acked, len(l.tm.ok))
	}
	u, err := readProc(s.coord.pid())
	m.coord = u.cpu
	m.start = stampNow()
	return m, err
}

// sliceStats is one slice of a beats window, as measured.
type sliceStats struct {
	rate     float64 // acknowledged beats per second
	p50, p90 float64 // ms
	coordCPU float64 // coordinator CPU per acknowledged beat, us
	genCPU   float64 // load generator CPU per acknowledged beat, us
}

func sliceBetween(loops []*beatLoop, a, b mark) sliceStats {
	var tm timings
	for i, l := range loops {
		for _, d := range l.tm.ok[a.acked[i]:b.acked[i]] {
			tm.add(d, nil)
		}
	}
	n := float64(len(tm.ok))
	us := func(d time.Duration) float64 { return share(float64(d.Nanoseconds())/1e3, n) }
	return sliceStats{
		rate: n / b.stop.at.Sub(a.start.at).Seconds(), p50: tm.percentile(50), p90: tm.percentile(90),
		coordCPU: us(b.coord - a.coord), genCPU: us(b.stop.gen - a.start.gen),
	}
}

// beatsReport turns the slices of a beats window into the end-to-end
// numbers: each slice's figures are brought to reference-host speed (see
// hostScale) and the median slice is reported. A closed loop has no
// schedule to hold it to, so one stall (a slow fsync, a collection in the
// load generator) shifts a whole-window figure and not the median slice.
func (s *stack) beatsReport(res *result, beats *timings, slices []sliceStats, paced float64) {
	scales := make([]float64, len(slices))
	atRef := make([]sliceStats, len(slices)) // the slices at reference-host speed
	for i, sl := range slices {
		k := hostScale(sl.genCPU, s.w.genCPU)
		scales[i] = k
		sl.coordCPU /= k
		if s.w.cpuBound {
			sl.rate, sl.p50, sl.p90 = sl.rate*k, sl.p50/k, sl.p90/k
		}
		atRef[i] = sl
	}
	rate := medianOf(atRef, func(sl sliceStats) float64 { return sl.rate })
	if s.w.perMs > 0 {
		// A paced client meets its schedule in every slice, so the median
		// slice only repeats the schedule; the whole window shows a shortfall.
		rate = paced
	}
	p50 := func(sl sliceStats) float64 { return sl.p50 }
	p90 := func(sl sliceStats) float64 { return sl.p90 }
	cpu := func(sl sliceStats) float64 { return sl.coordCPU }
	res.Attempted += beats.attempted
	res.Failed += beats.failed
	n := len(beats.ok)
	res.E2E["beats_per_s"] = metric{Value: rate, Unit: "1/s", N: n}
	res.E2E["beat_ack_p50_ms"] = metric{Value: medianOf(atRef, p50), Unit: "ms", N: n}
	res.E2E["beat_ack_p90_ms"] = metric{Value: medianOf(atRef, p90), Unit: "ms", N: n}
	res.Layers["proc.coord_cpu_us_per_op"] = metric{Value: medianOf(atRef, cpu), Unit: "us", N: n}
	res.Tails["beat_ack"] = tailText(beats)
	res.Tails["as_measured"] = fmt.Sprintf("median slice: %.0f beats/s, p50 %.4f ms, p90 %.4f ms, coordinator %.1f us/beat",
		medianOf(slices, func(sl sliceStats) float64 { return sl.rate }), medianOf(slices, p50), medianOf(slices, p90), medianOf(slices, cpu))
	res.Layers["loadgen.cpu_us_per_op"] = metric{Value: medianOf(slices, func(sl sliceStats) float64 { return sl.genCPU }), Unit: "us", N: n}
	res.Layers["loadgen.host_scale"] = metric{Value: median(scales), Unit: "ratio", N: len(slices)}
}

func medianOf(slices []sliceStats, f func(sliceStats) float64) float64 {
	v := make([]float64, len(slices))
	for i, sl := range slices {
		v[i] = f(sl)
	}
	return median(v)
}

// hostScale is how much slower than the reference host this host ran
// during a slice: the CPU the load generator spent per beat over what the
// same work cost where the benchmark was defined. The load generator does
// the same thing for every beat of a workload on every run, at the same
// time and on the same cores as the daemons it drives, so what a busy
// neighbour on a shared host takes from them it takes from the load
// generator too. Dividing a time by the scale gives the time at
// reference-host speed, which is what two runs can be compared on.
func hostScale(genCPU float64, ref time.Duration) float64 {
	if genCPU <= 0 || ref <= 0 {
		return 1
	}
	return genCPU / (float64(ref.Nanoseconds()) / 1e3)
}

// beatMetrics fills the numbers the open-loop workloads report about
// their beats and their coordinator CPU, as measured over the whole window.
func (s *stack) beatMetrics(res *result, beats *timings, rate float64, a, b snapshot, ops int) {
	res.Attempted += beats.attempted
	res.Failed += beats.failed
	n := len(beats.ok)
	res.E2E["beats_per_s"] = metric{Value: rate, Unit: "1/s", N: n}
	res.E2E["beat_ack_p50_ms"] = metric{Value: beats.percentile(50), Unit: "ms", N: n}
	res.E2E["beat_ack_p90_ms"] = metric{Value: beats.percentile(90), Unit: "ms", N: n}
	res.Tails["beat_ack"] = tailText(beats)
	cpu := b.coord.cpu - a.coord.cpu
	res.Layers["proc.coord_cpu_us_per_op"] = metric{Value: share(float64(cpu.Nanoseconds())/1e3, float64(ops)), Unit: "us", N: ops}
}

// tailText quotes a timing by the reporting rule.
func tailText(t *timings) string {
	p := tailPercentile(t.attempted)
	text := fmt.Sprintf("p50 %.3f ms, p%g %.3f ms, n=%d, failed=%d",
		t.percentile(50), p, t.percentile(p), t.attempted, t.failed)
	if t.firstErr != nil {
		text += fmt.Sprintf(" (first: %v)", t.firstErr)
	}
	return text
}

// checkLiveness is the zero-false-deaths check: every node is active,
// and the store's LastHeartbeat has caught up with every beat that was
// acknowledged longer ago than the coalescer may hold one back. (A beat
// acknowledged more recently may still be in the buffer, which is the
// bounded lag the design accepts.)
func (s *stack) checkLiveness(res *result, log []beatRecord) error {
	listed := time.Now()
	listing, err := s.ctl.nodes()
	if err != nil {
		return fmt.Errorf("listing nodes: %w", err)
	}
	if len(listing) != len(s.fl.nodes) {
		res.violate("coordinator lists %d nodes, fleet has %d", len(listing), len(s.fl.nodes))
	}
	cutoff := listed.Add(-coalesceLag - stalenessSlack).Sub(processStart)
	settled := make(map[*node]time.Time) // send time of the latest beat acked before the cutoff
	latest := make(map[*node]time.Time)  // ack time of the latest beat
	for _, b := range log {
		n := s.fl.nodes[b.node]
		if sent := processStart.Add(b.sent); b.acked < cutoff && sent.After(settled[n]) {
			settled[n] = sent
		}
		if acked := processStart.Add(b.acked); acked.After(latest[n]) {
			latest[n] = acked
		}
	}
	var dead, stale, early int
	for _, row := range listing {
		n := s.fl.byID[row.ID]
		if n == nil {
			res.violate("coordinator lists unknown node %s", row.ID)
			continue
		}
		if row.Status != db.NodeActive {
			dead++
		}
		if t, ok := settled[n]; ok && row.LastHeartbeat.Before(t.Add(-stalenessSlack)) {
			stale++
		}
		if t, ok := latest[n]; ok && row.LastHeartbeat.After(t.Add(stalenessSlack)) {
			early++
		}
	}
	if dead > 0 {
		res.violate("%d of %d nodes are not active after the window (false deaths)", dead, len(listing))
	}
	if stale > 0 {
		res.violate("%d nodes have LastHeartbeat behind a beat acknowledged more than %v ago", stale, coalesceLag+stalenessSlack)
	}
	if early > 0 {
		res.violate("%d nodes have LastHeartbeat after their last acknowledged beat", early)
	}
	return nil
}

// --- kill and recover ------------------------------------------------

var recoveredLine = regexp.MustCompile(`recovered from .*: snapshot=(\w+) watermark=(\d+) replayed=(\d+) torn=(\d+)`)

// recoverRepeats is how often the coordinator is killed and restarted at
// the end of a run; the median restart is reported. Nothing is written
// between the kills, so every restart replays the same log.
const recoverRepeats = 5

// killAndRecover SIGKILLs the coordinator with nothing in flight,
// restarts it on the same WAL and times how long until it serves the
// node and job listings it served before. Acked state must survive. The
// one field that may differ is LastHeartbeat: acked no-op beats wait in
// the coalescing buffer, so a node's stored beat time can be older than
// the listing showed if a flush was cut short, but never newer than the
// kill.
func (s *stack) killAndRecover(res *result) error {
	nodesBefore, err := s.ctl.nodes()
	if err != nil {
		return err
	}
	jobsBefore, err := s.ctl.jobs()
	if err != nil {
		return err
	}
	var took []float64
	replayed := 0
	for i := 0; i < recoverRepeats; i++ {
		s.ctl.close()
		logBefore, _ := os.ReadFile(s.coord.logPath)
		killed := time.Now()
		s.coord.kill()
		if s.coord, err = s.sb.coordinator(leaderID, s.coordAddr, s.walDir, s.coordArgs...); err != nil {
			return fmt.Errorf("restarting coordinator: %w", err)
		}
		nodesAfter, err := s.ctl.nodes()
		if err != nil {
			return err
		}
		jobsAfter, err := s.ctl.jobs()
		if err != nil {
			return err
		}
		recovered := time.Since(killed)
		took = append(took, recovered.Seconds())
		compareNodes(res, nodesBefore, nodesAfter, killed)
		compareJobs(res, jobsBefore, jobsAfter)

		logAfter, _ := os.ReadFile(s.coord.logPath)
		m := recoveredLine.FindSubmatch(logAfter[len(logBefore):])
		if m == nil {
			res.violate("restarted coordinator logged no recovery line")
			continue
		}
		// Every restart replays the same log; the last count stands for all.
		replayed, _ = strconv.Atoi(string(m[3]))
	}
	res.Layers["recover.restart_s"] = metric{Value: median(took), Unit: "s", N: len(took)}
	res.Layers["recover.records_replayed"] = metric{Value: float64(replayed), Unit: "count"}
	res.Layers["recover.ms_per_krecord"] = metric{Value: share(1e6*median(took), float64(replayed)), Unit: "ms"}
	return nil
}

func compareNodes(res *result, before, after []api.NodeSummary, killed time.Time) {
	if len(before) != len(after) {
		res.violate("recovery: %d nodes before the kill, %d after", len(before), len(after))
		return
	}
	was := make(map[string]api.NodeSummary, len(before))
	for _, n := range before {
		was[n.ID] = n
	}
	bad := 0
	for _, n := range after {
		b, ok := was[n.ID]
		same := ok && n.Status == b.Status && n.Departures == b.Departures && len(n.GPUs) == len(b.GPUs) &&
			!n.LastHeartbeat.IsZero() && !n.LastHeartbeat.After(killed.Add(stalenessSlack))
		for i := 0; same && i < len(n.GPUs); i++ {
			same = n.GPUs[i] == b.GPUs[i]
		}
		if !same {
			bad++
			if bad == 1 {
				res.violate("recovery: node %s was %+v, is %+v", n.ID, b, n)
			}
		}
	}
	if bad > 0 {
		res.violate("recovery: %d of %d node records differ from before the kill", bad, len(after))
	}
}

func compareJobs(res *result, before, after []api.JobStatus) {
	if len(before) != len(after) {
		res.violate("recovery: %d jobs before the kill, %d after", len(before), len(after))
		return
	}
	was := make(map[string]api.JobStatus, len(before))
	for _, j := range before {
		was[j.JobID] = j
	}
	bad := 0
	for _, j := range after {
		b, ok := was[j.JobID]
		if !ok || j.State != b.State || j.NodeID != b.NodeID || j.DeviceID != b.DeviceID ||
			j.Migrations != b.Migrations || !j.Submitted.Equal(b.Submitted) ||
			!j.Started.Equal(b.Started) || !j.Finished.Equal(b.Finished) {
			bad++
		}
	}
	if bad > 0 {
		res.violate("recovery: %d of %d job records differ from before the kill", bad, len(after))
	}
}
