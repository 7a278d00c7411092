// Package core implements GPUnion's central coordinator (§3.2): node
// registration and authentication, the real-time resource view, the
// scheduling loop over the pending-job priority queue, heartbeat-based
// failure detection, and the execution side of the resilient-migration
// mechanism.
//
// Agents are reached through the AgentHandle interface, which one type
// implements: agent.Client, over a socket for the daemons in cmd/ and
// over api.InProcess for tests and the discrete-event simulations.
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/heartbeat"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
)

// Errors returned by the coordinator.
var (
	ErrUnknownNode = errors.New("core: unknown node")
	ErrUnknownJob  = errors.New("core: unknown job")
	ErrBadToken    = errors.New("core: invalid token")
)

// AgentHandle is the coordinator's transport to one provider agent.
// Launch, Kill and Checkpoint orders carry the sending leader's epoch in
// their envelope; agents reject orders from a deposed leader (the
// fencing half of lease-based leadership).
type AgentHandle interface {
	// Launch starts a workload on the node.
	Launch(req api.LaunchRequest) (api.LaunchResponse, error)
	// Kill terminates a job on the node.
	Kill(req api.KillRequest) error
	// Checkpoint captures a job's state on demand.
	Checkpoint(req api.CheckpointRequest) (api.CheckpointResponse, error)
}

// Config parameterises the coordinator.
type Config struct {
	// HeartbeatInterval is the period agents must report at.
	HeartbeatInterval time.Duration
	// MissedThreshold is how many silent intervals mark a node lost.
	MissedThreshold int
	// Strategy picks the scheduling strategy (nil = round-robin).
	Strategy scheduler.Strategy
	// BatchSize caps how many pending requests one scheduling cycle
	// drains as a single batch (0 = 32). The feasible candidate set is
	// built once per batch, not once per request.
	BatchSize int
	// TokenTTL bounds issued credentials (0 = 30 days).
	TokenTTL time.Duration
	// AuthSecret seeds the token authority. Persisting it (the WAL-
	// enabled daemon keeps it next to the log) lets credentials issued
	// before a coordinator restart verify after it; nil generates an
	// ephemeral secret, invalidating all tokens on restart.
	AuthSecret []byte
	// EnableProfiling mounts net/http/pprof on the coordinator's HTTP
	// handler (diagnostics; off by default — profiles expose internals).
	EnableProfiling bool
	// Lease enables replicated operation: the coordinator only serves
	// mutations while it holds the lease (Replica.Start), every externally
	// visible write is fenced by the lease's epoch, and losing the
	// lease demotes it permanently (its store may have diverged from
	// the new leader's — rejoining requires a fresh standby bootstrap).
	// Nil is standalone mode: always leader, epoch zero, no fencing —
	// the pre-replication behavior, unchanged.
	Lease LeaseClient
	// ReplicaID names this coordinator replica to the lease arbiter and
	// in its flight-recorder events. Required when Lease is set.
	ReplicaID string
}

// Coordinator is the central scheduler and coordination hub.
type Coordinator struct {
	cfg     Config
	clock   simclock.Clock
	db      db.Store
	authy   *auth.Authority
	sched   *scheduler.Scheduler
	hb      *heartbeat.Monitor
	metrics *monitor.Registry
	met     *coordMetrics
	trace   *obs.Recorder
	// metCancel detaches the metrics mutation feed on Stop.
	metCancel func()

	mu     sync.Mutex
	agents map[string]AgentHandle
	// beatSeq is the duplicate-delivery guard on heartbeat ingress: the
	// highest beat sequence processed per node. A beat at or below it is
	// a replay and is acknowledged without side effects. Reset per node
	// on Register (an agent restart restarts its counter).
	beatSeq map[string]uint64
	// beats is the heartbeat coalescing buffer: no-op beats (state
	// unchanged, only LastHeartbeat advancing) park here instead of
	// paying a full per-beat store commit, and a simclock tick at
	// HeartbeatInterval/4 flushes the batch through one TouchNodes call
	// per shard. The heartbeat monitor still sees every beat
	// individually; only the store write is deferred.
	beats map[string]time.Time
	// beatTimer is the armed flush tick; nil while the buffer is empty
	// (idle fleets pay no timer churn).
	beatTimer simclock.Timer
	// launching maps a job to the node place is launching it on.
	launching        map[string]string
	jobSeq           int
	interactiveCount int
	// recentHealth is a bounded per-node ring of the latest ingested
	// health events — diagnostic state for the health endpoint, never
	// persisted (the WAL carries the events inside MutNodeHealth).
	recentHealth map[string][]gpu.HealthEvent
	stopped      bool
	sweeper      simclock.Timer
	// One placement pass at a time (see trySchedule): passRunning while
	// one runs, passWanted when a request arrived during it, passes
	// counts the follow-up passes running on goroutines of their own.
	passRunning bool
	passWanted  bool
	passes      sync.WaitGroup
	// Leadership state (Lease mode only). epoch is the fencing token of
	// the current (or last) term; leading (a grant held), admitted and
	// leaseUntil gate every mutation — a coordinator whose cached lease
	// has passed on its own clock self-fences even when it cannot reach
	// the arbiter.
	epoch      uint64
	leading    bool
	admitted   bool
	leaseUntil time.Time
	renewTimer simclock.Timer

	schedLatency *monitor.Histogram
}

// New creates a coordinator over database. Outside this package, every
// program assembles a coordinator one way, OpenReplica then
// Replica.Start (the daemon, the sims, the chaos harness, the
// examples); New stays exported for bench/trace.go, a module of its own
// whose hand-assembled coordinator puts timing decorators under the
// store, and for tests. Every lifecycle event goes to trace; nil gives
// the coordinator a recorder of its own (obs.DefaultCapacity), and a
// harness that runs several coordinator incarnations, or agents beside
// one, passes them all the same one.
//
// The checkpoint store is not read: a job's agent resolves the point it
// resumes from. The parameter stays while bench/trace.go, which cannot
// change with this package, passes one (ROADMAP item 6(a) deletes both).
func New(cfg Config, clock simclock.Clock, database db.Store, _ *checkpoint.Store, trace *obs.Recorder) (*Coordinator, error) {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = heartbeat.DefaultInterval
	}
	if cfg.MissedThreshold <= 0 {
		cfg.MissedThreshold = heartbeat.DefaultMissedThreshold
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if trace == nil {
		trace = obs.NewRecorder(clock, 0)
	}
	authy, err := auth.NewAuthority(cfg.AuthSecret, cfg.TokenTTL)
	if err != nil {
		return nil, fmt.Errorf("core: creating token authority: %w", err)
	}
	sched := scheduler.New(cfg.Strategy)
	metrics := monitor.NewRegistry()
	latency, err := metrics.Histogram("gpunion_scheduling_latency_seconds",
		"Latency of one scheduling decision",
		[]float64{0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5}, nil)
	if err != nil {
		return nil, err
	}
	met, err := newCoordMetrics(metrics)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:          cfg,
		clock:        clock,
		db:           database,
		authy:        authy,
		sched:        sched,
		hb:           heartbeat.NewMonitor(cfg.HeartbeatInterval, cfg.MissedThreshold),
		metrics:      metrics,
		met:          met,
		trace:        trace,
		agents:       make(map[string]AgentHandle),
		beatSeq:      make(map[string]uint64),
		beats:        make(map[string]time.Time),
		launching:    make(map[string]string),
		schedLatency: latency,
	}
	// Per-type mutation counters ride the store's observer feed.
	c.metCancel = database.AddMutationObserver(func(m db.Mutation) {
		met.observeMutation(m.Type)
	})
	if cfg.Lease == nil {
		// Standalone: leader from birth. In Lease mode the coordinator
		// starts as a fenced standby; admit arms the sweeper.
		c.scheduleSweep()
	}
	return c, nil
}

// DB exposes the system database (read paths for tools and tests).
func (c *Coordinator) DB() db.Store { return c.db }

// AuditSchedulerPool verifies the scheduler's cached candidate set
// against a fresh store scan (see scheduler.Scheduler.AuditCache). The
// chaos harness calls it at every audit point; any discrepancy is a
// platform bug.
func (c *Coordinator) AuditSchedulerPool() []string { return c.sched.AuditCache(c.db) }

// Metrics exposes the Prometheus-style registry.
func (c *Coordinator) Metrics() *monitor.Registry { return c.metrics }

// Trace exposes the flight recorder.
func (c *Coordinator) Trace() *obs.Recorder { return c.trace }

// InteractiveSessions reports how many interactive sessions have been
// launched (the Fig. 2 "+40% interactive sessions" statistic).
func (c *Coordinator) InteractiveSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.interactiveCount
}

// recoverState re-arms a coordinator whose database was restored from
// a snapshot + write-ahead log (see internal/wal):
//
//   - the job-ID sequence resumes past every recovered job, so new
//     submissions cannot collide with recovered ones;
//   - every job that is neither pending, ended nor running on an active
//     or paused node is requeued, and the pending queue re-places it
//     (the agent resumes it from its last durable checkpoint): a job on
//     a node whose departure committed before the old process moved
//     its jobs (nodeLeaves), and a record in the retired migrating
//     state an older build logged mid-move;
//   - failure detection is re-armed for every node that was active or
//     paused before the crash, dated from its last recorded heartbeat:
//     a node that outlived the coordinator keeps beating and registers
//     again when asked (no handle survived); one that died during the
//     outage exceeds the missed threshold and takes the normal
//     emergency-migration path;
//   - a scheduling pass drains whatever the restored queue holds: the
//     relaunch spec is the record's own, so there is nothing to rebuild
//     (placements need agents, which re-attach as nodes re-register).
//
// Replica.Start calls it once, before the coordinator admits traffic:
// at start-up in solo mode, after the promotion in Lease mode.
func (c *Coordinator) recoverState() {
	now := c.clock.Now()
	maxSeq := 0
	for _, job := range c.db.ListJobs() {
		var n int
		if _, err := fmt.Sscanf(job.ID, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		if job.State == db.JobPending || ended(job.State) {
			continue
		}
		if host, err := c.db.GetNode(job.NodeID); err != nil || job.State != db.JobRunning ||
			host.Status != db.NodeActive && host.Status != db.NodePaused {
			c.requeueFromCheckpoint(job, now)
		}
	}
	c.mu.Lock()
	if maxSeq > c.jobSeq {
		c.jobSeq = maxSeq
	}
	c.mu.Unlock()
	for _, n := range c.db.ListNodes() {
		if n.Status == db.NodeActive || n.Status == db.NodePaused {
			c.hb.Track(n.ID, n.LastHeartbeat)
		}
	}
	c.trySchedule()
}

// Stop halts the background sweep timer and fences every deferred
// callback: a stopped coordinator must never touch agents or the
// database again, even if timers it armed earlier still fire. Without
// the fence, a crashed-and-replaced coordinator would keep launching
// jobs as a zombie while its successor owns the fleet — exactly the
// split-brain the chaos harness's kill/restart scenario watches for.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.leading = false
	if c.sweeper != nil {
		c.sweeper.Stop()
	}
	if c.renewTimer != nil {
		c.renewTimer.Stop()
	}
	if c.beatTimer != nil {
		c.beatTimer.Stop()
		c.beatTimer = nil
	}
	// The coalescing buffer is discarded, not flushed: a buffered beat
	// never became a store mutation, so nothing acknowledged depends on
	// it (acks cover the monitor update, which already happened), and a
	// stopped coordinator must not touch the database. Agents re-beat
	// within one interval, so the successor converges immediately.
	c.beats = nil
	c.mu.Unlock()
	// A follow-up placement pass runs on a goroutine this coordinator
	// started; with stopped set none starts after it.
	c.passes.Wait()
	// Detach the metrics feed: a replaced coordinator must not keep
	// consuming its successor's store mutations.
	c.metCancel()
}

// handle returns the transport to a node's agent (nil if none is
// attached in this process).
func (c *Coordinator) handle(nodeID string) AgentHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agents[nodeID]
}
