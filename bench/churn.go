package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
)

// churn is the state of one open-loop run: the dispatcher, what the
// clients have learned so far, and the timings they record.
type churn struct {
	s      *stack
	d      *dispatcher
	window time.Duration
	life   time.Duration // a launched job completes this long after launch
	rejoin time.Duration // a departed node registers again this long after

	mu sync.Mutex
	// placements is the launch order: departures take the node hosting
	// the oldest job still running where it was launched.
	placements []placement
	acked      map[string]bool // placeable jobs the coordinator acknowledged
	backlog    []string        // unplaceable jobs, acknowledged and queued
	displaced  int             // jobs a departure stopped
	migrated   int             // of those, running elsewhere within the limit
	maxEpoch   uint64
	epochBack  int           // replies whose LeaderEpoch was below one seen earlier
	lastBeat   time.Duration // when the last measured beat was acked

	beats, submits, migrations, others timings
	// failoverBeats are the beats that fell due between a leader kill and
	// the fleet's re-adoption; see failover.disturbs.
	failoverBeats timings
	late          timings // how long after its due time each operation was sent

	// leader_kill only
	fo *failover
}

type placement struct {
	job  string
	node *node
}

func submitRequest(seq int, backlog bool) api.SubmitJobRequest {
	req := api.SubmitJobRequest{
		Envelope: api.Envelope{ProtocolVersion: api.ProtocolVersion},
		User:     fmt.Sprintf("user-%03d", seq%200), Kind: "interactive",
		ImageName: "pytorch/pytorch:2.3-cuda12", Priority: 10, GPUMemMiB: 8 * 1024,
		CapabilityMajor: 7, CapabilityMinor: 0, SessionSeconds: 3600,
	}
	if backlog {
		// More memory than any device in the fleet has: never placeable.
		req.Priority, req.GPUMemMiB = 0, 80*1024
	}
	return req
}

func newChurn(s *stack, seed int64, window time.Duration) *churn {
	c := &churn{s: s, window: window, life: jobLifetimeOf(window), rejoin: rejoinDelayOf(window),
		acked: make(map[string]bool),
		beats: timings{limit: beatLimit}, submits: timings{limit: submitLimit},
		migrations: timings{limit: migrationLimit}}
	if s.w.replicated {
		c.beats.limit, c.submits.limit = failoverLimit, failoverLimit
		c.fo = &failover{c: c, watched: make(chan struct{})}
		c.fo.remaining.Store(int64(len(s.fl.nodes)))
	}
	p := churnParams{nodes: s.w.nodes, warmup: warmupOf(window), window: window,
		submitRate: s.w.submitRate, beatRate: s.w.beatRate, departRate: s.w.departRate, backlog: s.w.backlog}
	c.d = newDispatcher(time.Now().Add(p.warmup), buildSchedule(seed, p))
	return c
}

// drive plays the schedule through the stack's connections. atStart
// runs when warm-up ends and the measured window begins, atEnd once the
// window is over and every operation due in it has finished. It returns
// how many acked, state-changing operations fell between the two.
//
// atStart runs while traffic flows: an open loop has no quiet moment to
// take a reading in. The counters it reads are monotonic, so deltas are
// exact for the span between the two readings, which is what the
// metrics divide by.
func (c *churn) drive(atStart, atEnd func() error) (ops opCounts, err error) {
	s := c.s
	s.fl.onLaunch = c.launched
	defer func() { s.fl.onLaunch = nil }()
	var wg sync.WaitGroup
	for _, lc := range s.load {
		wg.Add(1)
		go func() { defer wg.Done(); c.client(lc) }()
	}
	time.Sleep(time.Until(c.d.t0))
	startErr := atStart()
	before := c.counts()
	if c.fo != nil && startErr == nil {
		go c.fo.killLeader(c.d.t0.Add(leaderKillAt(c.window)))
	}
	time.Sleep(time.Until(c.d.t0.Add(c.window)))
	c.d.drain(c.window)
	wg.Wait()
	if startErr != nil {
		return ops, startErr
	}
	if c.fo != nil {
		if err := c.fo.settle(); err != nil {
			return ops, err
		}
	}
	return c.counts().sub(before), atEnd()
}

func (s *stack) runChurn(res *result, seed int64, window time.Duration) error {
	c := newChurn(s, seed, window)
	var before, after snapshot
	ops, err := c.drive(
		func() (err error) { before, err = s.snapshot(); return err },
		func() (err error) { after, err = s.snapshot(); return err })
	if err != nil {
		return err
	}
	return c.report(res, before, after, ops)
}

// opCounts are the acked, state-changing requests so far, the divisor
// of the CPU-per-operation figure.
type opCounts struct{ beats, submits, others int }

func (c *churn) counts() opCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return opCounts{len(c.beats.ok), len(c.acked) + len(c.backlog), len(c.others.ok)}
}

func (a opCounts) sub(b opCounts) opCounts {
	return opCounts{a.beats - b.beats, a.submits - b.submits, a.others - b.others}
}

// launched is the fleet's callback: a job started on a node. Its
// completion report is scheduled like any other operation.
func (c *churn) launched(n *node, job string, at time.Time) {
	c.mu.Lock()
	c.placements = append(c.placements, placement{job, n})
	c.mu.Unlock()
	c.d.push(op{due: at.Sub(c.d.t0) + c.life, kind: opComplete, node: n.index, job: job})
}

// client is one connection's goroutine: take the next due operation,
// run it, record it.
func (c *churn) client(lc *conn) {
	cl := &churnClient{c: c, conn: lc}
	if c.fo != nil {
		cl.endpoints = []string{c.s.coord.url, c.s.standby.url}
	}
	for {
		o, ok := c.d.next()
		if !ok {
			return
		}
		cl.run(o)
		c.d.done()
	}
}

// churnClient is the per-connection state of a client.
type churnClient struct {
	c         *churn
	conn      *conn
	endpoints []string // leader_kill: walked until one acknowledges
	cur       int
}

// measured reports whether an operation due at this offset belongs to
// the measured window rather than to warm-up.
func measured(due time.Duration) bool { return due >= 0 }

func (cl *churnClient) run(o op) {
	c := cl.c
	sentAfter := c.d.since() - o.due
	if measured(o.due) && o.kind != opPoll {
		c.mu.Lock()
		c.late.add(sentAfter, nil)
		c.mu.Unlock()
	}
	switch o.kind {
	case opBeat, opAdopt:
		cl.beat(o)
	case opSubmit, opBacklog:
		cl.submit(o)
	case opDepart:
		cl.depart(o)
	case opRejoin:
		n := c.s.fl.nodes[o.node]
		err := cl.write(o.due, func(lc *conn) error { return lc.register(n) })
		cl.record(&c.others, o.due, c.d.since()-o.due, err)
	case opComplete:
		cl.complete(o)
	case opPoll:
		cl.poll(o)
	}
}

// record files one finished operation under its kind, unless it was
// warm-up.
func (cl *churnClient) record(t *timings, due, took time.Duration, err error) {
	if !measured(due) {
		return
	}
	cl.c.mu.Lock()
	t.add(took, err)
	cl.c.mu.Unlock()
}

// write runs one state-changing request and, in a replicated stack,
// tells the failover who acknowledged it.
func (cl *churnClient) write(due time.Duration, call func(*conn) error) error {
	err := cl.do(due, call)
	if err == nil && cl.endpoints != nil {
		cl.c.fo.ackedBy(cl.endpoints[cl.cur])
	}
	return err
}

// do runs one request. In a replicated stack it walks the endpoint list
// until a coordinator answers without an error or the failover limit has
// passed since the operation was due; elsewhere it is a single attempt.
func (cl *churnClient) do(due time.Duration, call func(*conn) error) error {
	if cl.endpoints == nil {
		return call(cl.conn)
	}
	c := cl.c
	for tries := 0; ; tries++ {
		err := call(cl.conn)
		if err == nil {
			return nil
		}
		if c.d.since()-due > failoverLimit {
			return fmt.Errorf("no coordinator acknowledged within %v: %w", failoverLimit, err)
		}
		cl.cur = (cl.cur + 1) % len(cl.endpoints)
		cl.conn.retarget(cl.endpoints[cl.cur])
		if tries%len(cl.endpoints) == len(cl.endpoints)-1 {
			time.Sleep(10 * time.Millisecond) // tried everyone: nobody leads yet
		}
	}
}

// sawEpoch checks that leader epochs in replies never go backwards. Zero
// is the protocol's "no epoch" (some acks carry none) and is not a step
// back.
func (c *churn) sawEpoch(e uint64) {
	if e == 0 {
		return
	}
	c.mu.Lock()
	if e < c.maxEpoch {
		c.epochBack++
	} else {
		c.maxEpoch = e
	}
	c.mu.Unlock()
}

func (cl *churnClient) beat(o op) {
	c := cl.c
	sent := c.d.since()
	n := c.s.fl.nodes[o.node]
	n.mu.Lock()
	away := n.departed
	n.mu.Unlock()
	if away {
		return // a departed agent does not beat
	}
	if o.kind == opAdopt && !c.fo.needs(n) {
		return // a scheduled beat already brought this node back
	}
	var resp api.HeartbeatResponse
	err := cl.write(o.due, func(lc *conn) (err error) {
		resp, err = lc.heartbeat(n, false)
		return err
	})
	if err == nil && resp.Reregister && c.fo != nil {
		// The new leader holds the node's record but not its connection:
		// register again, then deliver the beat.
		err = cl.write(o.due, func(lc *conn) error {
			var reg api.RegisterResponse
			if err := lc.call("POST", "/v1/register", n.registerRequest(), &reg); err != nil {
				return err
			}
			c.sawEpoch(reg.LeaderEpoch)
			n.registered(reg)
			return nil
		})
		if err == nil {
			c.fo.adopted(n)
			err = cl.write(o.due, func(lc *conn) (err error) {
				resp, err = lc.heartbeat(n, false)
				return err
			})
		}
	}
	if err == nil {
		c.sawEpoch(resp.LeaderEpoch)
		if !resp.Acknowledged {
			err = errors.New("beat not acknowledged")
		}
	}
	if o.kind == opAdopt {
		cl.record(&c.others, o.due, c.d.since()-o.due, err)
		return
	}
	// A beat is timed from when it was sent, not from when it was due:
	// see beatMetrics in report.
	acked := c.d.since()
	tm := &c.beats
	if c.fo != nil && c.fo.disturbs(o.due) {
		tm = &c.failoverBeats
	}
	cl.record(tm, o.due, acked-sent, err)
	if err == nil && measured(o.due) {
		c.mu.Lock()
		c.lastBeat = max(c.lastBeat, acked)
		c.mu.Unlock()
	}
}

func (cl *churnClient) submit(o op) {
	c := cl.c
	req := submitRequest(o.seq, o.kind == opBacklog)
	var id string
	err := cl.write(o.due, func(lc *conn) (err error) {
		id, err = lc.submit(req)
		return err
	})
	if o.kind == opBacklog {
		if err == nil {
			c.mu.Lock()
			c.backlog = append(c.backlog, id)
			c.mu.Unlock()
		}
		cl.record(&c.others, o.due, c.d.since()-o.due, err)
		return
	}
	if err != nil {
		cl.record(&c.submits, o.due, 0, err)
		return
	}
	c.mu.Lock()
	c.acked[id] = true
	c.mu.Unlock()
	cl.poll(op{kind: opPoll, job: id, origin: o.due, wait: time.Millisecond})
}

// poll asks for a job's status once. Running where it should be ends
// the measurement; anything else tries again a little later, until the
// limit that belongs to the measurement has passed.
func (cl *churnClient) poll(o op) {
	c := cl.c
	migration := o.from != ""
	tm, limit := &c.submits, c.submits.limit
	if migration {
		tm, limit = &c.migrations, migrationLimit
	}
	var st api.JobStatus
	err := cl.do(o.origin, func(lc *conn) (err error) {
		st, err = lc.jobStatus(o.job)
		return err
	})
	took := c.d.since() - o.origin
	running := err == nil && (st.State == db.JobRunning || st.State == db.JobCompleted) && st.NodeID != o.from
	switch {
	case running:
		if migration && measured(o.origin) {
			c.mu.Lock()
			c.migrated++
			c.mu.Unlock()
		}
		cl.record(tm, o.origin, took, nil)
	case took > limit:
		cl.record(tm, o.origin, took, fmt.Errorf("job %s is %q after %v", o.job, st.State, took))
	default:
		o.due = c.d.since() + o.wait
		o.wait = min(2*o.wait, 50*time.Millisecond)
		c.d.push(o)
	}
}

// depart takes the node hosting the oldest running job out of the fleet
// and follows each job it displaced until it runs somewhere else.
func (cl *churnClient) depart(o op) {
	c := cl.c
	var victim *node
	c.mu.Lock()
	for len(c.placements) > 0 && victim == nil {
		p := c.placements[0]
		c.placements = c.placements[1:]
		for _, h := range c.s.fl.hosts(p.job) {
			if h == p.node {
				victim = p.node
			}
		}
	}
	c.mu.Unlock()
	if victim == nil {
		return // nothing is running yet
	}
	req, jobs := c.s.fl.depart(victim)
	err := cl.write(o.due, func(lc *conn) error { return lc.call("POST", "/v1/depart", req, nil) })
	cl.record(&c.others, o.due, c.d.since()-o.due, err)
	c.d.push(op{due: o.due + c.rejoin, kind: opRejoin, node: victim.index})
	if measured(o.due) {
		c.mu.Lock()
		c.displaced += len(jobs)
		c.mu.Unlock()
	}
	for _, job := range jobs {
		if err != nil {
			cl.record(&c.migrations, o.due, 0, err)
			continue
		}
		cl.poll(op{kind: opPoll, job: job, origin: o.due, from: victim.id, wait: time.Millisecond})
	}
}

// complete is a node reporting that its job finished. A job that was
// killed or displaced in the meantime has nothing to report.
func (cl *churnClient) complete(o op) {
	c := cl.c
	n := c.s.fl.nodes[o.node]
	if !o.held {
		if !c.s.fl.stop(n, o.job) {
			return
		}
		o.origin = o.due // a held report keeps counting from here
	}
	if c.fo != nil {
		// /v1/jobupdate answers 204 whether or not the replica leads, and
		// a standby drops the report. It goes only to the replica known to
		// lead; while none is known the agent holds it, and the connection
		// goes back to work that can find the new leader.
		if c.fo.leaderless() {
			cl.hold(o)
			return
		}
		cl.cur = 0
		if c.fo.killedAt.Load() != 0 {
			cl.cur = 1
		}
		cl.conn.retarget(cl.endpoints[cl.cur])
	}
	n.mu.Lock()
	req := api.JobUpdateRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: n.epoch},
		MachineID: n.id, Token: n.token, JobID: o.job, State: db.JobCompleted,
	}
	n.mu.Unlock()
	err := cl.conn.call("POST", "/v1/jobupdate", req, nil)
	if err != nil && !refused(err) && c.fo != nil {
		cl.hold(o) // the leader died under the request; the report is idempotent
		return
	}
	cl.record(&c.others, o.origin, c.d.since()-o.origin, err)
}

// hold puts a completion report back for a little later.
func (cl *churnClient) hold(o op) {
	c := cl.c
	if c.d.since()-o.origin > failoverLimit {
		cl.record(&c.others, o.origin, 0, fmt.Errorf("no leader to report to within %v", failoverLimit))
		return
	}
	o.held = true
	o.due = c.d.since() + 20*time.Millisecond
	c.d.push(o)
}

// report turns the run into metrics and checks.
func (c *churn) report(res *result, before, after snapshot, ops opCounts) error {
	s := c.s
	// beatMetrics below counts c.beats.
	for _, t := range []*timings{&c.failoverBeats, &c.submits, &c.migrations, &c.others} {
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	total := ops.beats + ops.submits + ops.others
	// Background beats share two connections with operations that hold
	// one for tens of milliseconds, so a beat's wait from its due time is
	// mostly the wait for a free connection, and its 95th percentile sits
	// on the edge between "one was free" and "both were busy": ten seeds
	// spread it by a third. The gated figure is therefore the beat's
	// service time, sent to acked (what the coordinator does with a beat
	// under this workload), quoted over the whole window, and the wait
	// for a connection is reported for every operation alike as
	// loadgen.late_ms_p95. Submits and migrations stay timed from when
	// they were due.
	s.beatMetrics(res, &c.beats, float64(len(c.beats.ok)+len(c.failoverBeats.ok))/c.lastBeat.Seconds(),
		before, after, total)
	s.layerMetrics(res, before, after, total)

	L := res.Layers
	n := len(c.submits.ok)
	L["workload.submit_to_running_p50_ms"] = metric{Value: c.submits.percentile(50), Unit: "ms", N: n}
	L["workload.submit_to_running_p95_ms"] = metric{Value: c.submits.percentile(95), Unit: "ms", N: n}
	res.Tails["submit_to_running"] = tailText(&c.submits)
	res.Tails["other_requests"] = tailText(&c.others)
	if c.fo != nil {
		res.Tails["beat_ack_during_failover"] = tailText(&c.failoverBeats)
	}
	cpu := after.coord.cpu - before.coord.cpu
	L["workload.coord_cpu_ms_per_job"] = metric{Value: share(ms(cpu), float64(ops.submits)), Unit: "ms", N: ops.submits}
	L["loadgen.late_ms_p95"] = metric{Value: c.late.percentile(95), Unit: "ms", N: c.late.attempted}
	if c.displaced > 0 {
		m := len(c.migrations.ok)
		L["workload.migrate_downtime_p50_ms"] = metric{Value: c.migrations.percentile(50), Unit: "ms", N: m}
		L["workload.migrate_downtime_p90_ms"] = metric{Value: c.migrations.percentile(90), Unit: "ms", N: m}
		L["workload.migration_success_share"] = metric{Value: share(float64(c.migrated), float64(c.displaced)), Unit: "share", N: c.displaced}
		res.Tails["migrate_downtime"] = tailText(&c.migrations)
	}
	L["workload.failed_share"] = metric{Value: share(float64(res.Failed), float64(res.Attempted)), Unit: "share", N: res.Attempted}

	if c.epochBack > 0 {
		res.violate("%d replies carried a LeaderEpoch lower than one seen before", c.epochBack)
	}
	if err := c.checkJobs(res); err != nil {
		return err
	}
	if c.fo != nil {
		c.fo.report(res)
		return nil
	}
	return s.killAndRecover(res)
}

// checkJobs is the never-lost check: every job the coordinator
// acknowledged is still known to it, placeable ones are completed or
// running on the node the fleet runs them on, and the unplaceable
// backlog is still queued.
func (c *churn) checkJobs(res *result) error {
	listing, err := c.s.ctl.jobs()
	if err != nil {
		return fmt.Errorf("listing jobs: %w", err)
	}
	byID := make(map[string]api.JobStatus, len(listing))
	for _, j := range listing {
		byID[j.JobID] = j
	}
	var lost, wrongState, notHosted int
	for id := range c.acked {
		j, ok := byID[id]
		switch {
		case !ok:
			lost++
		case j.State == db.JobCompleted:
		case j.State == db.JobRunning:
			hosted := false
			for _, h := range c.s.fl.hosts(id) {
				hosted = hosted || h.id == j.NodeID
			}
			if !hosted {
				notHosted++
			}
		default:
			wrongState++
		}
	}
	for _, id := range c.backlog {
		if j, ok := byID[id]; !ok {
			lost++
		} else if j.State != db.JobPending {
			wrongState++
		}
	}
	if lost > 0 {
		res.violate("%d acknowledged jobs are missing from the coordinator's listing", lost)
	}
	if wrongState > 0 {
		res.violate("%d acknowledged jobs ended neither completed nor running (backlog: not pending)", wrongState)
	}
	if notHosted > 0 {
		res.violate("%d jobs are recorded running on a node that does not run them", notHosted)
	}
	return nil
}

// --- leader kill -------------------------------------------------------

// failover follows one leader kill: when the leader died, when the lease
// named the standby, when the first operation was acknowledged by it and
// when the last node had registered with it.
type failover struct {
	c *churn

	killedAt   atomic.Int64 // unix nanoseconds; 0 until the kill
	handoverAt atomic.Int64
	firstAckAt atomic.Int64
	adoptedAt  atomic.Int64
	remaining  atomic.Int64 // nodes the new leader has not adopted yet

	mu      sync.Mutex
	pending map[*node]bool
	killErr error
	watched chan struct{} // closed when killLeader has finished
}

type leaseRecord struct {
	Holder  string    `json:"holder"`
	Epoch   uint64    `json:"epoch"`
	Expires time.Time `json:"expires"`
}

func readLease(path string) (leaseRecord, bool) {
	var rec leaseRecord
	raw, err := os.ReadFile(path)
	return rec, err == nil && json.Unmarshal(raw, &rec) == nil
}

// killLeader waits until `at`, then for the next lease renewal, and
// SIGKILLs the leader right after it: every run kills at the same phase
// of the lease, so the handover time does not depend on where in the
// renewal cycle the kill happened to land. It then watches the lease
// file until it names the standby.
func (f *failover) killLeader(at time.Time) {
	defer close(f.watched)
	s := f.c.s
	time.Sleep(time.Until(at))
	first, _ := readLease(s.leaseFile)
	deadline := time.Now().Add(3 * leaseTTLSec * time.Second)
	for time.Now().Before(deadline) {
		if rec, ok := readLease(s.leaseFile); ok && rec.Expires.After(first.Expires) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	last, err := viewOf(s.coord)
	// The renewal's record is renamed into place before its lock file is
	// removed. A leader killed in between leaves the lock behind, and the
	// standby may only break it after five seconds: a different failure
	// (a crash inside the lease's critical section) from the one this
	// workload times. Wait the few microseconds until the lock is gone.
	for i := 0; i < 20; i++ {
		if _, statErr := os.Stat(s.leaseFile + ".lock"); statErr != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.mu.Lock()
	f.killErr = err
	f.pending = make(map[*node]bool, len(s.fl.nodes))
	for _, n := range s.fl.nodes {
		f.pending[n] = true
	}
	f.mu.Unlock()
	f.killedAt.Store(time.Now().UnixNano())
	s.coord.kill()
	s.killed = &last
	for time.Now().Before(deadline.Add(failoverLimit)) {
		if rec, ok := readLease(s.leaseFile); ok && rec.Holder == standbyID {
			f.handoverAt.Store(time.Now().UnixNano())
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ackedBy notes a request acknowledged by a coordinator. The first one
// the standby acknowledges after the kill ends the outage and starts
// the storm: every node is told to come back as fast as the two
// connections allow.
func (f *failover) ackedBy(endpoint string) {
	if f.killedAt.Load() == 0 || endpoint != f.c.s.standby.url {
		return
	}
	if !f.firstAckAt.CompareAndSwap(0, time.Now().UnixNano()) {
		return
	}
	storm := make([]op, len(f.c.s.fl.nodes))
	for i, n := range f.c.s.fl.nodes {
		storm[i] = op{due: f.c.d.since(), kind: opAdopt, node: n.index}
	}
	f.c.d.pushSpare(storm)
}

// disturbs reports whether an operation due at this offset falls into
// the failover: after the kill and before the last node was re-adopted.
// Beats due then go to the standby's door, wait out the lease, and bring
// their node back with a registration in the same breath; roughly two
// in five of a window's beats do, which leaves the median of all beats
// on the fence between the two kinds. The beat figures of leader_kill
// therefore describe the replicated pair in normal service, before the
// kill and after the re-adoption, and the failover is measured as what
// it is: workload.failover_first_ack_s, workload.failover_readopted_s
// and the tail quoted as beat_ack_during_failover.
func (f *failover) disturbs(due time.Duration) bool {
	killed := f.killedAt.Load()
	if killed == 0 || f.c.d.t0.Add(due).UnixNano() < killed {
		return false
	}
	adopted := f.adoptedAt.Load()
	return adopted == 0 || f.c.d.t0.Add(due).UnixNano() < adopted
}

// leaderless reports whether the leader is dead and the standby has not
// acknowledged anything yet.
func (f *failover) leaderless() bool {
	return f.killedAt.Load() != 0 && f.firstAckAt.Load() == 0
}

// needs reports whether the new leader has yet to adopt n.
func (f *failover) needs(n *node) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending[n]
}

// adopted notes that n registered with the new leader.
func (f *failover) adopted(n *node) {
	f.mu.Lock()
	was := f.pending[n]
	delete(f.pending, n)
	f.mu.Unlock()
	if was && f.remaining.Add(-1) == 0 {
		f.adoptedAt.Store(time.Now().UnixNano())
	}
}

// settle runs after the window: the standby is now the coordinator the
// rest of the run talks to.
func (f *failover) settle() error {
	<-f.watched
	s := f.c.s
	if f.killErr != nil {
		return f.killErr
	}
	if f.firstAckAt.Load() == 0 {
		return fmt.Errorf("no operation was acknowledged by the standby after the leader kill\n%s", s.standby.logTail(20))
	}
	s.ctl.retarget(s.standby.url)
	return nil
}

func (f *failover) report(res *result) {
	span := func(from, to int64) float64 { return float64(to-from) / 1e9 }
	killed := f.killedAt.Load()
	L := res.Layers
	L["workload.failover_first_ack_s"] = metric{Value: span(killed, f.firstAckAt.Load()), Unit: "s"}
	if at := f.handoverAt.Load(); at != 0 {
		L["lease.handover_s"] = metric{Value: span(killed, at), Unit: "s"}
		L["core.promote_to_serving_s"] = metric{Value: span(at, f.firstAckAt.Load()), Unit: "s"}
	} else {
		res.violate("the lease file never named the standby")
	}
	if at := f.adoptedAt.Load(); at != 0 {
		L["workload.failover_readopted_s"] = metric{Value: span(killed, at), Unit: "s"}
		L["core.reregistrations_per_s"] = metric{
			Value: share(float64(len(f.c.s.fl.nodes)), span(f.firstAckAt.Load(), at)), Unit: "1/s", N: len(f.c.s.fl.nodes)}
	} else {
		res.violate("%d nodes had not registered with the new leader when the window closed", f.remaining.Load())
	}
}
