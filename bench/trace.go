package main

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

// --- spans -------------------------------------------------------------

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the index of the span that was open on the same
// goroutine when this one began (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// recorder keeps every span in memory until the run is over. The traced
// run has one client, and the traced handler admits one coordinator
// request at a time, so request spans nest on one shared stack at the
// price of a mutex and two clock reads. The coordinator's timer
// callbacks (coalescer flush, sweep) may run beside a request; they
// announce themselves through the traced clock and get a stack of their
// own, found by goroutine id. The WAL's own goroutines never nest; their
// file operations are roots.
type recorder struct {
	epoch time.Time

	// serial admits one coordinator request at a time. With one client
	// it is never contended, except when the relay's forwards overlap.
	serial sync.Mutex

	mu    sync.Mutex
	spans []span
	stack []int32 // open spans of the request in flight
	req   int32
	since int64 // spans that began before this offset are set-up and warm-up
	// own holds the stacks of timer callbacks running now; nOwn is its
	// size, readable without the lock.
	own  map[uint64]*[]int32
	nOwn atomic.Int32

	// bodies samples request bodies per route for the replay pass.
	bodies map[string][][]byte
}

const bodiesPerRoute = 512

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<20),
		own: make(map[uint64]*[]int32), bodies: make(map[string][][]byte)}
}

// measureFromNow marks the start of the measured window: spans begun
// earlier (set-up, warm-up) stay in the file but out of the analysis.
func (r *recorder) measureFromNow() {
	r.mu.Lock()
	r.since = int64(time.Since(r.epoch))
	r.bodies = make(map[string][][]byte)
	r.mu.Unlock()
}

// goid reads the current goroutine's id from its stack header. It costs
// microseconds, so it is called only while a timer callback is running.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// stackOf returns the span stack of the calling goroutine. Caller holds
// r.mu; gid is zero when no timer callback is running.
func (r *recorder) stackOf(gid uint64) *[]int32 {
	if st, ok := r.own[gid]; ok && gid != 0 {
		return st
	}
	return &r.stack
}

// begin opens a span on the calling goroutine's stack and returns its
// index for end.
func (r *recorder) begin(name string) int32 {
	var gid uint64
	if r.nOwn.Load() > 0 {
		gid = goid()
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	stack := r.stackOf(gid)
	parent, req := int32(-1), int32(0)
	if len(*stack) > 0 {
		parent = (*stack)[len(*stack)-1]
		req = r.spans[parent].Req
	}
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	*stack = append(*stack, id)
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	now := int64(time.Since(r.epoch))
	var gid uint64
	if r.nOwn.Load() > 0 {
		gid = goid()
	}
	r.mu.Lock()
	r.spans[id].End = now
	stack := r.stackOf(gid)
	if n := len(*stack); n > 0 && (*stack)[n-1] == id {
		*stack = (*stack)[:n-1]
	}
	r.mu.Unlock()
}

// root records a finished span that nests under nothing and has no
// children: the WAL's flush and sync goroutines, the relay's requests.
func (r *recorder) root(name string, start time.Time) {
	now := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.epoch)), End: int64(now.Sub(r.epoch)), Parent: -1})
	r.mu.Unlock()
}

// request runs f, one coordinator request, under a root span that
// numbers its tree.
func (r *recorder) request(name string, f func()) {
	r.serial.Lock()
	defer r.serial.Unlock()
	id := r.begin(name)
	r.mu.Lock()
	r.req++
	r.spans[id].Req = r.req
	r.mu.Unlock()
	f()
	r.end(id)
}

// timer runs f, a timer callback, under a root span on a stack of its
// own: what it calls nests under it, not under the request in flight.
func (r *recorder) timer(name string, f func()) {
	gid := goid()
	r.mu.Lock()
	r.own[gid] = new([]int32)
	r.mu.Unlock()
	r.nOwn.Add(1)
	id := r.begin(name)
	f()
	r.end(id)
	r.nOwn.Add(-1)
	r.mu.Lock()
	delete(r.own, gid)
	r.mu.Unlock()
}

func (r *recorder) sample(route string, body []byte) {
	r.mu.Lock()
	if len(r.bodies[route]) < bodiesPerRoute {
		r.bodies[route] = append(r.bodies[route], body)
	}
	r.mu.Unlock()
}

// write dumps the spans as JSON.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- decorators on the seams the code exposes ----------------------------

// tracedHandler wraps coord.Handler: one root span per request, named
// after its route. The relay's handler (prefix "relay ") runs beside the
// coordinator's in this process; its requests are leaves, recorded
// without touching the coordinator's span stack.
func tracedHandler(rec *recorder, prefix string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := prefix + routeOf(r)
		if r.Method == http.MethodPost {
			rec.mu.Lock()
			want := len(rec.bodies[route]) < bodiesPerRoute
			rec.mu.Unlock()
			if want {
				// Read ahead, outside the span: the bytes are already in the
				// server's buffer, and the handler reads them back from memory.
				if body, err := io.ReadAll(r.Body); err == nil {
					rec.sample(route, body)
					r.Body = io.NopCloser(bytes.NewReader(body))
				}
			}
		}
		if prefix != "" {
			start := time.Now()
			next.ServeHTTP(w, r)
			rec.root(route, start)
			return
		}
		rec.request(route, func() { next.ServeHTTP(w, r) })
	})
}

// routeOf names a request by method and path pattern.
func routeOf(r *http.Request) string {
	path := r.URL.Path
	if rest, ok := strings.CutPrefix(path, "/v1/jobs/"); ok && rest != "" {
		path = "/v1/jobs/{id}"
	}
	return r.Method + " " + path
}

// tracedStore decorates the db.Store the coordinator is built on: reads
// and writes become spans, and the mutation hook the WAL installs is
// intercepted so the wait for durability is a span of its own.
type tracedStore struct {
	db.Store
	rec *recorder
}

func (t *tracedStore) SetMutationHook(h db.MutationHook) {
	if h == nil {
		t.Store.SetMutationHook(nil)
		return
	}
	t.Store.SetMutationHook(func(m db.Mutation) {
		id := t.rec.begin("wal.hook_wait")
		h(m)
		t.rec.end(id)
	})
}

func (t *tracedStore) GetNode(id string) (db.NodeRecord, error) {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.GetNode(id)
}
func (t *tracedStore) GetJob(id string) (db.JobRecord, error) {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.GetJob(id)
}
func (t *tracedStore) ListNodes() []db.NodeRecord {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.ListNodes()
}
func (t *tracedStore) ListJobs() []db.JobRecord {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.ListJobs()
}
func (t *tracedStore) CountJobsInState(st db.JobState) int {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.CountJobsInState(st)
}
func (t *tracedStore) JobsInState(st db.JobState) []db.JobRecord {
	s := t.rec.begin("db.jobsinstate")
	defer t.rec.end(s)
	return t.Store.JobsInState(st)
}
func (t *tracedStore) JobsOnNode(id string) []db.JobRecord {
	s := t.rec.begin("db.read")
	defer t.rec.end(s)
	return t.Store.JobsOnNode(id)
}
func (t *tracedStore) UpsertNode(n db.NodeRecord) {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	t.Store.UpsertNode(n)
}
func (t *tracedStore) UpdateNode(id string, fn func(*db.NodeRecord)) error {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.UpdateNode(id, fn)
}
func (t *tracedStore) TouchNodes(beats []db.BeatDelta) int {
	s := t.rec.begin("db.touchnodes")
	defer t.rec.end(s)
	return t.Store.TouchNodes(beats)
}
func (t *tracedStore) RecordHealth(id string, at time.Time, ev []gpu.HealthEvent,
	fold func(float64, time.Time) float64) (float64, bool) {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.RecordHealth(id, at, ev, fold)
}
func (t *tracedStore) InsertJob(j db.JobRecord) error {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.InsertJob(j)
}
func (t *tracedStore) UpdateJob(id string, fn func(*db.JobRecord)) error {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.UpdateJob(id, fn)
}
func (t *tracedStore) RecordAllocation(a db.AllocationRecord) {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	t.Store.RecordAllocation(a)
}
func (t *tracedStore) CloseAllocation(job string, end time.Time) error {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.CloseAllocation(job, end)
}
func (t *tracedStore) CloseAllocationEpisode(job, node, dev string, end time.Time) error {
	s := t.rec.begin("db.write")
	defer t.rec.end(s)
	return t.Store.CloseAllocationEpisode(job, node, dev, end)
}
func (t *tracedStore) AppendSample(sm db.Sample) {
	s := t.rec.begin("db.appendsample")
	defer t.rec.end(s)
	t.Store.AppendSample(sm)
}

// tracedFS decorates wal.Config.FS: the log's write and fsync calls are
// roots of their own, issued by the WAL's flush and sync goroutines.
type tracedFS struct{ rec *recorder }

func (t tracedFS) OpenAppend(name string) (wal.File, error) {
	f, err := wal.OSFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, rec: t.rec}, nil
}

type tracedFile struct {
	wal.File
	rec *recorder
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.rec.root("wal.fs_write", start)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.root("wal.fs_sync", start)
	return err
}

// tracedAgent decorates core.AgentHandle: the RPCs to provider nodes.
type tracedAgent struct {
	core.AgentHandle
	rec *recorder
}

func (a tracedAgent) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	s := a.rec.begin("agent.launch_rpc")
	defer a.rec.end(s)
	return a.AgentHandle.Launch(req)
}
func (a tracedAgent) Kill(req api.KillRequest) error {
	s := a.rec.begin("agent.kill_rpc")
	defer a.rec.end(s)
	return a.AgentHandle.Kill(req)
}

// tracedClock makes the coordinator's timer callbacks roots of their own.
type tracedClock struct {
	simclock.Clock
	rec *recorder
}

func (c tracedClock) AfterFunc(d time.Duration, f func()) simclock.Timer {
	return c.Clock.AfterFunc(d, func() { c.rec.timer("core.timer", f) })
}

// tracedUpstream decorates aggregator.Upstream: one forward per flush.
type tracedUpstream struct {
	aggregator.Upstream
	rec *recorder
}

func (u tracedUpstream) IngestAggregated(b api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	start := time.Now()
	resp, err := u.Upstream.IngestAggregated(b)
	u.rec.root("aggregator.flush", start)
	return resp, err
}

// --- the coordinator, assembled in this process -------------------------

// composition is cmd/coordinator's solo mode built from the same
// constructors and the same defaults, inside the benchmark process, with
// a decorator on every seam when rec is not nil. relay is cmd/aggregator
// likewise, for the relayed workload.
type composition struct {
	coord  *core.Coordinator
	mgr    *wal.Manager
	secret []byte
	store  db.Store
	srv    *http.Server
	url    string
	relay  *aggregator.Aggregator
	rsrv   *http.Server
	rurl   string
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(l) }()
	return srv, "http://" + l.Addr().String(), nil
}

func compose(walDir string, relayed bool, rec *recorder) (*composition, error) {
	// The shipped defaults, from the shipped code: 10 s heartbeat, 3
	// missed, 2 ms group commit, 300 s snapshots, round-robin, batch 32.
	cfg := config.Coordinator{WALDir: walDir}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &composition{secret: make([]byte, 32)}
	if _, err := rand.Read(c.secret); err != nil {
		return nil, err
	}
	c.store = db.New(0)
	walCfg := wal.Config{GroupWindow: cfg.WALGroupCommit(), SnapshotInterval: cfg.SnapshotInterval()}
	clock := simclock.Real()
	factory := core.HandleFactory(core.DefaultHandleFactory)
	if rec != nil {
		c.store = &tracedStore{Store: c.store, rec: rec}
		walCfg.FS = tracedFS{rec}
		clock = tracedClock{clock, rec}
		factory = func(addr string) core.AgentHandle {
			return tracedAgent{core.DefaultHandleFactory(addr), rec}
		}
	}
	var err error
	if c.mgr, err = wal.Open(cfg.WALDir, c.store, walCfg); err != nil {
		return nil, err
	}
	c.coord, err = core.New(core.Config{
		HeartbeatInterval: cfg.HeartbeatInterval(),
		MissedThreshold:   cfg.MissedThreshold,
		Strategy:          &scheduler.RoundRobin{},
		BatchSize:         cfg.SchedulerBatchSize,
		AuthSecret:        c.secret,
	}, clock, c.store, checkpoint.NewStore(storage.NewMemStore(0)), eventbus.New(4096))
	if err != nil {
		return nil, err
	}
	_ = c.mgr.Writer().Instrument(c.coord.Metrics())
	handler := c.coord.Handler(factory)
	if rec != nil {
		handler = tracedHandler(rec, "", handler)
	}
	if c.srv, c.url, err = serveOn(handler); err != nil {
		return nil, err
	}
	if relayed {
		var up aggregator.Upstream = core.NewClient(c.url)
		if rec != nil {
			up = tracedUpstream{up, rec}
		}
		c.relay = aggregator.New(aggregator.Config{ID: "relay", FlushInterval: aggregatorFlush}, simclock.Real(), up)
		// cmd/aggregator's heartbeat route.
		mux := http.NewServeMux()
		mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
			var req api.HeartbeatRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				reply(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
				return
			}
			resp, err := c.relay.Ingest(req)
			if err != nil {
				reply(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
				return
			}
			reply(w, http.StatusOK, resp)
		})
		var rh http.Handler = mux
		if rec != nil {
			rh = tracedHandler(rec, "relay ", mux)
		}
		if c.rsrv, c.rurl, err = serveOn(rh); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *composition) close() {
	if c.relay != nil {
		c.relay.Stop()
		_ = c.rsrv.Close()
	}
	c.coord.Stop()
	_ = c.srv.Close()
	_ = c.mgr.Close()
}

// --- the traced run ---------------------------------------------------------

// tracedPass drives one workload against an in-process composition with
// one client and returns the mean client-side service time per request
// and the number of requests, plus what the recorder saw.
type tracedPass struct {
	requests  int
	serviceUS float64 // mean send-to-reply time per request, microseconds
	prom      [2]scrape
	comp      *composition
}

func runPass(sb *sandbox, w workload, seed int64, window time.Duration, rec *recorder) (*tracedPass, error) {
	dir, err := sb.dir("traced-" + w.name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	comp, err := compose(filepath.Join(dir, "wal"), w.relayed, rec)
	if err != nil {
		return nil, err
	}
	defer comp.close()
	fl, err := newFleet(w.nodes, newRand(seed))
	if err != nil {
		return nil, err
	}
	defer fl.close()

	// Set-up is not measured here, so it may use more connections than
	// the measured path ever does.
	s := &stack{sb: sb, w: w, fl: fl, ctl: dial(comp.url)}
	for i := 0; i < 8; i++ {
		s.load = append(s.load, dial(comp.url))
	}
	if err := s.registerAll(); err != nil {
		return nil, err
	}
	for _, c := range s.load {
		c.close()
	}
	target := comp.url
	if w.relayed {
		target = comp.rurl
	}
	client := dial(target)
	s.load = []*conn{client}
	defer client.close()
	defer s.ctl.close()

	pass := &tracedPass{comp: comp}
	scrapeNow := func(i int) error {
		text, err := comp.coord.MetricsSnapshot()
		if err != nil {
			return err
		}
		pass.prom[i], err = parseProm(text)
		return err
	}
	start := func() error {
		if rec != nil {
			rec.measureFromNow()
		}
		client.answered.Store(0)
		client.waited.Store(0)
		return scrapeNow(0)
	}
	switch w.kind {
	case closedBeats:
		order := newRand(seed).Perm(len(fl.nodes))
		loop := &beatLoop{c: client, perMs: w.perMs}
		for _, idx := range order {
			loop.nodes = append(loop.nodes, fl.nodes[idx])
		}
		loop.run(time.Now().Add(warmupOf(window)), w.telemetry)
		if err := start(); err != nil {
			return nil, err
		}
		loop.run(time.Now().Add(window), w.telemetry)
		if loop.err != nil {
			return nil, loop.err
		}
	case openChurn:
		c := newChurn(s, seed, window)
		if _, err := c.drive(start, func() error { return nil }); err != nil {
			return nil, err
		}
	}
	pass.requests = int(client.answered.Load())
	pass.serviceUS = share(float64(client.waited.Load())/1e3, float64(pass.requests))
	if w.relayed {
		time.Sleep(2 * aggregatorFlush)
	}
	return pass, scrapeNow(1)
}
