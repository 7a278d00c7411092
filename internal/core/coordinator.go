// Package core implements GPUnion's central coordinator (§3.2): node
// registration and authentication, the real-time resource view, the
// scheduling loop over the pending-job priority queue, heartbeat-based
// failure detection, and the execution side of the resilient-migration
// mechanism.
//
// The coordinator is transport-agnostic: agents are reached through the
// AgentHandle interface, implemented in-process (tests, discrete-event
// simulation) and over HTTP (the real daemons in cmd/).
package core

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/heartbeat"
	"gpunion/internal/migration"
	"gpunion/internal/monitor"
	"gpunion/internal/netsim"
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
// Launch and Kill requests carry the sending leader's epoch in their
// envelope; agents reject writes from a deposed leader (the fencing
// half of lease-based leadership).
type AgentHandle interface {
	// Launch starts a workload on the node.
	Launch(req api.LaunchRequest) (api.LaunchResponse, error)
	// Kill terminates a job on the node.
	Kill(req api.KillRequest) error
	// Checkpoint captures a job's state on demand.
	Checkpoint(jobID string, incremental bool) (api.CheckpointResponse, error)
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
	// Net optionally models LAN transfer timing for migrations;
	// StorageNode names the netsim node holding checkpoint data.
	Net         *netsim.Network
	StorageNode string
	// Trace optionally supplies a shared flight recorder. The common
	// case is nil: New creates a recorder and attaches it to the event
	// bus, so every coordinator traces from birth. A harness that runs
	// several coordinator incarnations over one bus passes the same
	// recorder to each — it is assumed already attached, and New will
	// not attach it again (the bus cannot unsubscribe, so re-attaching
	// would duplicate every event).
	Trace *obs.Recorder
	// EnableProfiling mounts net/http/pprof on the coordinator's HTTP
	// handler (diagnostics; off by default — profiles expose internals).
	EnableProfiling bool
	// Lease enables replicated operation: the coordinator only serves
	// mutations while it holds the lease (TryLead), every externally
	// visible write is fenced by the lease's epoch, and losing the
	// lease demotes it permanently (its store may have diverged from
	// the new leader's — rejoining requires a fresh standby bootstrap).
	// Nil is standalone mode: always leader, epoch zero, no fencing —
	// the pre-replication behavior, unchanged.
	Lease LeaseClient
	// ReplicaID names this coordinator replica to the lease arbiter and
	// in LeaderHint replies. Required when Lease is set.
	ReplicaID string
}

// Coordinator is the central scheduler and coordination hub.
type Coordinator struct {
	cfg   Config
	clock simclock.Clock
	db    db.Store
	authy *auth.Authority
	sched *scheduler.Scheduler
	hb    *heartbeat.Monitor
	ckpts *checkpoint.Store
	mig   *migration.Engine
	// healthParams tunes the health fold; fixed to the defaults so the
	// health-score-consistent invariant can recompute every fold.
	healthParams monitor.HealthParams
	bus          *eventbus.Bus
	metrics      *monitor.Registry
	met          *coordMetrics
	trace        *obs.Recorder
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
	beatTimer        simclock.Timer
	jobSeq           int
	interactiveCount int
	// recentHealth is a bounded per-node ring of the latest ingested
	// health events — diagnostic state for the health endpoint, never
	// persisted (the WAL carries the events inside MutNodeHealth).
	recentHealth map[string][]gpu.HealthEvent
	// temporary tracks nodes that departed with return intent.
	temporary map[string]bool
	stopped   bool
	sweeper   simclock.Timer
	// Leadership state (Lease mode only). epoch is the fencing token of
	// the current (or last) term; leading and leaseUntil gate every
	// mutation — a coordinator whose cached lease has passed on its own
	// clock self-fences even when it cannot reach the arbiter.
	epoch      uint64
	leading    bool
	leaseUntil time.Time
	renewTimer simclock.Timer

	schedLatency *monitor.Histogram
}

// New creates a coordinator. database and ckpts may be shared with other
// components (the simulation inspects them); a database that was
// recovered from a snapshot + write-ahead log should be followed by
// RecoverState before traffic is admitted.
func New(cfg Config, clock simclock.Clock, database db.Store, ckpts *checkpoint.Store, bus *eventbus.Bus) (*Coordinator, error) {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = heartbeat.DefaultInterval
	}
	if cfg.MissedThreshold <= 0 {
		cfg.MissedThreshold = heartbeat.DefaultMissedThreshold
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	if bus == nil {
		bus = eventbus.New(0)
	}
	authy, err := auth.NewAuthority(cfg.AuthSecret, cfg.TokenTTL)
	if err != nil {
		return nil, fmt.Errorf("core: creating token authority: %w", err)
	}
	sched := scheduler.New(cfg.Strategy, scheduler.DefaultReliability())
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
	trace := cfg.Trace
	if trace == nil {
		trace = obs.NewRecorder(clock, 0)
		trace.Attach(bus)
	}
	c := &Coordinator{
		cfg:          cfg,
		clock:        clock,
		db:           database,
		authy:        authy,
		sched:        sched,
		hb:           heartbeat.NewMonitor(cfg.HeartbeatInterval, cfg.MissedThreshold),
		ckpts:        ckpts,
		mig:          migration.New(sched, database, ckpts, cfg.Net, cfg.StorageNode),
		healthParams: monitor.DefaultHealthParams(),
		bus:          bus,
		metrics:      metrics,
		met:          met,
		trace:        trace,
		agents:       make(map[string]AgentHandle),
		beatSeq:      make(map[string]uint64),
		beats:        make(map[string]time.Time),
		temporary:    make(map[string]bool),
		schedLatency: latency,
	}
	// Per-(type, shard) mutation counters ride the store's observer
	// feed.
	c.metCancel = database.AddMutationObserver(func(m db.Mutation) {
		met.observeMutation(m.Type, database.ShardFor(m))
	})
	if cfg.Lease == nil {
		// Standalone: leader from birth. In Lease mode the coordinator
		// starts as a fenced standby; TryLead arms the sweeper.
		c.scheduleSweep()
	}
	return c, nil
}

// DB exposes the system database (read paths for tools and tests).
func (c *Coordinator) DB() db.Store { return c.db }

// Checkpoints exposes the checkpoint store.
func (c *Coordinator) Checkpoints() *checkpoint.Store { return c.ckpts }

// AuditSchedulerPool verifies the scheduler's cached candidate set
// against a fresh store scan (see scheduler.Scheduler.AuditCache). The
// chaos harness calls it at every audit point; any discrepancy is a
// platform bug.
func (c *Coordinator) AuditSchedulerPool() []string { return c.sched.AuditCache(c.db) }

// Migration exposes the migration engine (statistics).
func (c *Coordinator) Migration() *migration.Engine { return c.mig }

// Metrics exposes the Prometheus-style registry.
func (c *Coordinator) Metrics() *monitor.Registry { return c.metrics }

// Bus exposes the event bus.
func (c *Coordinator) Bus() *eventbus.Bus { return c.bus }

// Trace exposes the flight recorder.
func (c *Coordinator) Trace() *obs.Recorder { return c.trace }

// InteractiveSessions reports how many interactive sessions have been
// launched (the Fig. 2 "+40% interactive sessions" statistic).
func (c *Coordinator) InteractiveSessions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.interactiveCount
}

// RecoverState re-arms a coordinator whose database was restored from
// a snapshot + write-ahead log (see internal/wal):
//
//   - the job-ID sequence resumes past every recovered job, so new
//     submissions cannot collide with recovered ones;
//   - jobs caught mid-migration are requeued — their in-flight
//     checkpoint transfers died with the old process, and the pending
//     queue re-places them from their last durable checkpoint;
//   - failure detection is re-armed for every node that was active or
//     paused before the crash, dated from its last recorded heartbeat:
//     a node that outlived the coordinator keeps beating and is simply
//     re-adopted; one that died during the outage exceeds the missed
//     threshold and takes the normal emergency-migration path;
//   - a scheduling pass drains whatever the restored queue holds: the
//     relaunch spec is the record's own, so there is nothing to rebuild
//     (placements need agents, which re-attach as nodes re-register).
//
// Call it once, after New and before admitting traffic.
func (c *Coordinator) RecoverState() {
	now := c.clock.Now()
	maxSeq := 0
	for _, job := range c.db.ListJobs() {
		var n int
		if _, err := fmt.Sscanf(job.ID, "job-%d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		if job.State == db.JobMigrating {
			c.requeueFromCheckpoint(job.ID, now)
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
	c.TrySchedule()
}

// Stop halts the background sweep timer and fences every deferred
// callback: a stopped coordinator must never touch agents or the
// database again, even if migration-transfer timers it armed earlier
// still fire. Without the fence, a crashed-and-replaced coordinator
// would keep launching jobs as a zombie while its successor owns the
// fleet — exactly the split-brain the chaos harness's kill/restart
// scenario watches for.
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
	// Detach the metrics feed: a replaced coordinator must not keep
	// consuming its successor's store mutations.
	c.metCancel()
}

// isStopped reports whether Stop was called.
func (c *Coordinator) isStopped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stopped
}

// --- Leadership (Lease mode) ---

// Epoch returns the coordinator's current leader epoch (zero in
// standalone mode or before the first TryLead).
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Leading reports whether this replica currently believes it holds the
// lease. Standalone coordinators always lead.
func (c *Coordinator) Leading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leadingLocked()
}

// leadingLocked evaluates leadership under c.mu: standalone mode always
// leads; in Lease mode the cached grant must not have passed on the
// local clock — the self-fence that stops a zombie whose lease client
// is cut (it cannot hear ErrLeaseLost, but it can read its own watch).
func (c *Coordinator) leadingLocked() bool {
	if c.cfg.Lease == nil {
		return !c.stopped
	}
	return !c.stopped && c.leading && c.clock.Now().Before(c.leaseUntil)
}

// TryLead attempts to acquire the lease and become the leader. On
// success the sweeper and the renewal loop start and mutations are
// admitted under the new epoch. Call after New (+ RecoverState, for a
// promoted standby). No-op returning true in standalone mode.
func (c *Coordinator) TryLead() bool {
	if c.cfg.Lease == nil {
		return true
	}
	epoch, until, err := c.cfg.Lease.Acquire(c.cfg.ReplicaID)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	c.epoch = epoch
	c.leaseUntil = until
	c.leading = true
	c.mu.Unlock()
	c.met.leaderChanges.Inc()
	c.bus.Publish(eventbus.Event{Type: eventbus.LeaderElected, Time: c.clock.Now(),
		Node: c.cfg.ReplicaID, Detail: map[string]any{"epoch": epoch}})
	c.scheduleSweep()
	c.scheduleRenew()
	return true
}

// scheduleRenew arms the next lease renewal at a third of the remaining
// grant, so two renewals can fail before the lease lapses.
func (c *Coordinator) scheduleRenew() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.leading {
		return
	}
	d := c.leaseUntil.Sub(c.clock.Now()) / 3
	if d <= 0 {
		d = time.Millisecond
	}
	c.renewTimer = c.clock.AfterFunc(d, c.renewLease)
}

// renewLease extends the grant or steps down. A transport failure is
// not a demotion by itself — the replica keeps serving while its cached
// grant is live and retries — but once the grant passes on the local
// clock without a successful renewal, the replica self-fences: the
// arbiter's re-grant grace (skew tolerance) guarantees no successor
// exists before that moment.
func (c *Coordinator) renewLease() {
	c.mu.Lock()
	if c.stopped || !c.leading {
		c.mu.Unlock()
		return
	}
	holder, epoch := c.cfg.ReplicaID, c.epoch
	c.mu.Unlock()
	until, err := c.cfg.Lease.Renew(holder, epoch)
	if err != nil {
		if errors.Is(err, ErrLeaseLost) {
			c.stepDown("lease lost")
			return
		}
		c.mu.Lock()
		live := c.clock.Now().Before(c.leaseUntil)
		c.mu.Unlock()
		if !live {
			c.stepDown("lease expired unrenewed")
			return
		}
		c.scheduleRenew()
		return
	}
	c.mu.Lock()
	c.leaseUntil = until
	c.mu.Unlock()
	c.scheduleRenew()
}

// stepDown demotes a leader in place. The demotion is permanent for
// this instance: its store may have diverged from the new leader's
// during the overlap, so rejoining the replica group requires a fresh
// standby bootstrap from the new leader's log, not a re-acquire.
func (c *Coordinator) stepDown(reason string) {
	c.mu.Lock()
	if !c.leading {
		c.mu.Unlock()
		return
	}
	c.leading = false
	if c.sweeper != nil {
		c.sweeper.Stop()
	}
	if c.renewTimer != nil {
		c.renewTimer.Stop()
	}
	epoch := c.epoch
	c.mu.Unlock()
	c.met.leaderChanges.Inc()
	c.bus.Publish(eventbus.Event{Type: eventbus.LeaderDeposed, Time: c.clock.Now(),
		Node: c.cfg.ReplicaID, Detail: map[string]any{"epoch": epoch, "reason": reason}})
}

// fence gates one mutating request. reqEpoch is the envelope epoch the
// caller presented (zero = legacy/no epoch). It returns a typed
// api.ErrNotLeader when this replica must not serve the request: it is
// a standby, its lease lapsed, or the request proves a newer leader
// exists (in which case the replica steps down first — the epoch
// comparison is the PR-3 stopped-coordinator fence generalized to
// terms). Nil in standalone mode.
func (c *Coordinator) fence(reqEpoch uint64) error {
	if c.cfg.Lease == nil {
		return nil
	}
	c.mu.Lock()
	if reqEpoch > c.epoch {
		c.mu.Unlock()
		c.stepDown("superseded by higher epoch")
		c.mu.Lock()
	}
	ok := c.leadingLocked()
	epoch := c.epoch
	c.mu.Unlock()
	if ok {
		return nil
	}
	hint, arbiterEpoch := c.cfg.Lease.Leader()
	if arbiterEpoch > epoch {
		epoch = arbiterEpoch
	}
	if hint == c.cfg.ReplicaID {
		// The arbiter still names us, but we are fenced (stopped or
		// stepped down): do not send traffic back to ourselves.
		hint = ""
	}
	// A fenced write is the end of a failover span: the first one after
	// a step-down proves the old leader can no longer mutate state.
	c.met.fencedWrites.Inc()
	c.trace.Record(obs.KindWriteFenced, "", c.cfg.ReplicaID, map[string]string{
		"req_epoch":   strconv.FormatUint(reqEpoch, 10),
		"local_epoch": strconv.FormatUint(epoch, 10),
	})
	return api.ErrNotLeader{LeaderHint: hint, Epoch: epoch}
}

// envelope stamps outgoing coordinator→agent requests with the current
// protocol version and leader epoch.
func (c *Coordinator) envelope() api.Envelope {
	return api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: c.Epoch()}
}

func (c *Coordinator) scheduleSweep() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.sweeper = c.clock.AfterFunc(c.cfg.HeartbeatInterval, func() {
		c.Sweep()
		c.scheduleSweep()
	})
	c.mu.Unlock()
}

// --- Node lifecycle ---

// Register admits a node (or re-admits a returning one) and returns its
// credentials. handle is the transport used to reach the node's agent.
func (c *Coordinator) Register(req api.RegisterRequest, handle AgentHandle) (api.RegisterResponse, error) {
	if req.MachineID == "" {
		return api.RegisterResponse{}, errors.New("core: empty machine id")
	}
	version, ok := api.NegotiateVersion(req.ProtocolVersion)
	if !ok {
		return api.RegisterResponse{}, api.ErrVersionMismatch{
			Requested: req.ProtocolVersion,
			Min:       api.MinProtocolVersion, Max: api.ProtocolVersion,
		}
	}
	if err := c.fence(req.LeaderEpoch); err != nil {
		return api.RegisterResponse{}, err
	}
	now := c.clock.Now()
	token, err := c.authy.Issue(req.MachineID, auth.RoleProvider, now)
	if err != nil {
		return api.RegisterResponse{}, fmt.Errorf("core: issuing token: %w", err)
	}

	rec := db.NodeRecord{
		ID: req.MachineID, Addr: req.Addr, Status: db.NodeActive,
		GPUs: req.GPUs, Kernel: req.Kernel, Storage: req.StorageBytes,
		RegisteredAt: now, LastHeartbeat: now, LastJoin: now,
	}
	returning := false
	if old, err := c.db.GetNode(req.MachineID); err == nil {
		returning = old.Status == db.NodeDeparted || old.Status == db.NodeUnreachable
		rec.RegisteredAt = old.RegisteredAt
		rec.Departures = old.Departures
		rec.TotalUptime = old.TotalUptime
	}
	c.db.UpsertNode(rec)

	c.mu.Lock()
	c.agents[req.MachineID] = handle
	// A (re-)registration starts a fresh beat-sequence session: an agent
	// process restart restarts its counter at one, which must not be
	// mistaken for a replay of the previous session's beats.
	delete(c.beatSeq, req.MachineID)
	c.mu.Unlock()
	c.hb.Track(req.MachineID, now)

	c.bus.Publish(eventbus.Event{Type: eventbus.NodeRegistered, Time: now, Node: req.MachineID})
	if returning {
		c.handleNodeReturn(req.MachineID, now)
	}
	c.TrySchedule()
	return api.RegisterResponse{
		Token: token, HeartbeatInterval: c.cfg.HeartbeatInterval,
		ProtocolVersion: version, LeaderEpoch: c.Epoch(),
	}, nil
}

// Heartbeat processes a periodic agent report.
func (c *Coordinator) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	if err := c.fence(req.LeaderEpoch); err != nil {
		return api.HeartbeatResponse{}, err
	}
	return c.heartbeatAt(req, c.clock.Now())
}

// heartbeatAt is the fenced heartbeat body with an explicit receipt
// time. The direct path stamps clock.Now(); aggregated ingestion
// (IngestAggregated) replays each rolled-up beat through here with the
// aggregator's receipt time, so both paths fold to byte-identical
// store state — same dedup, same reconciliation, same coalescing.
// Callers must have fenced the request's epoch already.
func (c *Coordinator) heartbeatAt(req api.HeartbeatRequest, now time.Time) (api.HeartbeatResponse, error) {
	if _, err := c.authy.VerifySubject(req.Token, req.MachineID, now); err != nil {
		if errors.Is(err, auth.ErrExpired) {
			// Long-lived nodes outlive their credentials (semester-scale
			// participation): ask for a fresh registration rather than
			// dropping the node.
			return api.HeartbeatResponse{Reregister: true}, nil
		}
		return api.HeartbeatResponse{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	// Duplicate-delivery guard: every beat an agent builds carries a
	// fresh sequence number, so a beat at or below the high-water mark
	// is a replay (a retried request, a duplicated packet) of a report
	// already fully processed. It is acknowledged — the sender's retry
	// loop must stop — but causes no state change: no samples appended,
	// no telemetry refresh, no anti-entropy scan. Zero means the sender
	// predates sequences and is always processed. The sequence is
	// *claimed* up front — a concurrent duplicate of an in-flight beat
	// must not start a second pass through the body — and released if
	// the beat bounces early (unknown node, dead handle — the
	// Reregister paths): a bounced beat was not applied, and its retry
	// must be processed, not swallowed.
	beatApplied := false
	if req.BeatSeq > 0 {
		c.mu.Lock()
		if req.BeatSeq <= c.beatSeq[req.MachineID] {
			c.mu.Unlock()
			c.met.heartbeatDups.Inc()
			// A replay is only acknowledged while the node is still a
			// live member. If the record is gone, the node was swept dead
			// or departed, or the agent handle died with an old process,
			// the original beat's processing no longer stands — and a
			// replay must not perform side effects, so it cannot re-adopt
			// the node the way a fresh beat would. Ask for a fresh
			// registration instead of silencing the agent's retry loop.
			if rec, gerr := c.db.GetNode(req.MachineID); gerr != nil ||
				rec.Status == db.NodeUnreachable || rec.Status == db.NodeDeparted ||
				c.handle(req.MachineID) == nil {
				return api.HeartbeatResponse{Reregister: true}, nil
			}
			return api.HeartbeatResponse{Acknowledged: true}, nil
		}
		prevSeq := c.beatSeq[req.MachineID]
		c.beatSeq[req.MachineID] = req.BeatSeq
		c.mu.Unlock()
		defer func() {
			if beatApplied {
				return
			}
			c.mu.Lock()
			if c.beatSeq[req.MachineID] == req.BeatSeq {
				c.beatSeq[req.MachineID] = prevSeq
			}
			c.mu.Unlock()
		}()
	}
	c.met.heartbeats.Inc()
	rec, err := c.db.GetNode(req.MachineID)
	if err != nil {
		return api.HeartbeatResponse{Reregister: true}, nil
	}
	if c.handle(req.MachineID) == nil {
		// The record survived (e.g. restored from snapshot + WAL) but
		// the transport to the agent died with the old process: ask the
		// node to re-register so the handle is re-established.
		return api.HeartbeatResponse{Reregister: true}, nil
	}

	wasAway := rec.Status == db.NodeUnreachable || rec.Status == db.NodeDeparted
	newStatus := db.NodeActive
	if req.Paused {
		newStatus = db.NodePaused
	}

	// Database-side orphan detection: a node that lost power and came
	// back inside the missed-heartbeat window (so the sweep never
	// fired) lost its workloads, but its job records still read
	// Running. The scan over the node's jobs runs only when the cheap
	// divergence signals fire — the report's job count disagreeing with
	// the record's allocated-device count, or the telemetry flipping an
	// allocated device to free — so steady-state heartbeats stay O(1)
	// in the job table.
	// Classify the report once: entries the platform cannot match to a
	// placement on this node (unknown, stale or foreign jobs) force the
	// lost-placement scan — such a job may be occupying a device and
	// keeping the counts equal while a genuine placement went missing —
	// and the provably stale ones are killed below. Pending and
	// migrating records are never killed (a launch for that very job
	// may be in flight to this node, committed only after the agent
	// starts it), and neither is a placement elsewhere still inside the
	// heartbeat grace: this report may simply predate it.
	reported := make(map[string]bool, len(req.RunningJobs))
	suspicious := false
	var orphans []string
	for _, jobID := range req.RunningJobs {
		reported[jobID] = true
		jrec, jerr := c.db.GetJob(jobID)
		if jerr != nil {
			suspicious = true // agent-local work the platform never tracked
			continue
		}
		if jrec.NodeID == req.MachineID &&
			(jrec.State == db.JobRunning || jrec.State == db.JobMigrating) {
			continue // legitimate placement
		}
		suspicious = true
		if jrec.State == db.JobPending || jrec.State == db.JobMigrating {
			continue
		}
		if jrec.State == db.JobRunning && now.Sub(jrec.PlacedAt) < c.cfg.HeartbeatInterval {
			continue
		}
		orphans = append(orphans, jobID)
	}
	lost, protected := c.lostPlacements(rec, reported, req.Telemetry, suspicious, now)

	// Health events ride the beat. The bound is enforced coordinator-
	// side too — a hostile or buggy agent must not widen a fold beyond
	// what the protocol promises. Sitting after the dedup guard, a
	// replayed beat can never fold its events twice.
	health := req.HealthEvents
	if len(health) > api.MaxHealthEventsPerBeat {
		health = health[:api.MaxHealthEventsPerBeat]
	}

	if c.isNoopBeat(rec, req.Telemetry, health, wasAway, newStatus, suspicious, lost, orphans, protected) {
		// Steady state at fleet scale: nothing about the record changes
		// but LastHeartbeat. The advance parks in the coalescing buffer —
		// a tick at HeartbeatInterval/4 commits the whole batch as one
		// compact MutBeat record per shard — instead of pushing a full
		// node after-image through the WAL for every beat.
		c.enqueueBeat(req.MachineID, now)
	} else {
		uerr := c.db.UpdateNode(req.MachineID, func(n *db.NodeRecord) {
			n.LastHeartbeat = now
			n.Status = newStatus
			if wasAway {
				n.LastJoin = now
			}
			// Refresh device allocation truth from the agent. A device
			// whose running job is inside the placement grace keeps its
			// flag: the job may simply postdate the report, and the store
			// must never show a running job on a free device.
			for i := range n.GPUs {
				for _, tel := range req.Telemetry {
					if n.GPUs[i].DeviceID == tel.DeviceID && !protected[tel.DeviceID] {
						n.GPUs[i].Allocated = tel.Allocated
					}
				}
			}
		})
		if uerr != nil {
			return api.HeartbeatResponse{Reregister: true}, nil
		}
	}
	c.hb.Beat(req.MachineID, now)

	if len(health) > 0 {
		c.ingestHealth(req.MachineID, health, now)
	}

	// Keep telemetry history for capacity planning (§3.2). Samples are
	// soft state — an in-memory append the beat never waits on the log
	// for; a checkpoint carries them across a clean restart.
	if len(req.Telemetry) > 0 {
		samples := make([]db.Sample, 0, 2*len(req.Telemetry))
		for _, tel := range req.Telemetry {
			samples = append(samples,
				db.Sample{Time: now, NodeID: req.MachineID,
					Metric: "gpu_utilization", Value: tel.Utilization},
				db.Sample{Time: now, NodeID: req.MachineID,
					Metric: "gpu_memory_used_mib", Value: float64(tel.UsedMemMiB)})
		}
		c.db.AppendSamples(samples)
	}

	// The host no longer executes these placements: requeue them from
	// their last checkpoints, exactly like an emergency displacement.
	// The old episode is closed while the record still points at it —
	// flipping to pending first would let a concurrent scheduling pass
	// open a fresh episode that this CloseAllocation would then eat.
	// The state re-check runs inside the record lock: a concurrent
	// terminal update (the agent's completion racing this heartbeat on
	// the HTTP path) must win, not be flipped back to pending.
	for _, job := range lost {
		c.freeDevice(job.NodeID, job.DeviceID)
		// Identity-scoped close: a duplicate heartbeat racing this one
		// may already have requeued and re-placed the job — the fresh
		// episode on the new device must not be the one that closes.
		_ = c.db.CloseAllocationEpisode(job.ID, job.NodeID, job.DeviceID, now)
		requeued := false
		_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) {
			if j.State != db.JobRunning || j.NodeID != req.MachineID {
				return
			}
			j.State = db.JobPending
			j.NodeID, j.DeviceID = "", ""
			requeued = true
		})
		if requeued {
			c.bus.Publish(eventbus.Event{Type: eventbus.JobRequeued, Time: now, Job: job.ID})
		}
	}
	c.killOrphans(req.MachineID, orphans, now)

	if wasAway {
		c.handleNodeReturn(req.MachineID, now)
	}
	c.TrySchedule()
	// The beat is fully applied: the claimed sequence stays as the
	// dedup high-water mark.
	beatApplied = true
	return api.HeartbeatResponse{Acknowledged: true, LeaderEpoch: c.Epoch()}, nil
}

// lostPlacements compares the heartbeat report against the node's
// recorded placements. It returns the running jobs the node has
// stopped reporting (to be requeued) and the devices of just-placed
// jobs whose absence from the report is not yet meaningful (their
// allocation flags must not be refreshed from this report). rec is the
// node record as read before this heartbeat's updates; suspicious
// forces the scan regardless of the cheap count/flip signals.
func (c *Coordinator) lostPlacements(rec db.NodeRecord, reported map[string]bool, tel []gpu.Telemetry, suspicious bool, now time.Time) (lost []db.JobRecord, protected map[string]bool) {
	allocatedNow := make(map[string]bool, len(tel))
	for _, t := range tel {
		allocatedNow[t.DeviceID] = t.Allocated
	}
	expected, flipped := 0, false
	for _, g := range rec.GPUs {
		if !g.Allocated {
			continue
		}
		expected++
		if alloc, ok := allocatedNow[g.DeviceID]; ok && !alloc {
			flipped = true
		}
	}
	if !suspicious && !flipped && expected == len(reported) {
		return nil, nil
	}
	protected = make(map[string]bool)
	for _, job := range c.db.JobsOnNode(rec.ID) {
		if job.State != db.JobRunning || reported[job.ID] {
			continue
		}
		if !job.PlacedAt.IsZero() && now.Sub(job.PlacedAt) < c.cfg.HeartbeatInterval {
			// Placed after the agent built this report; the next
			// report decides.
			protected[job.DeviceID] = true
			continue
		}
		lost = append(lost, job)
	}
	return lost, protected
}

// killOrphans is the agent-side half of heartbeat anti-entropy: a node
// that kept executing through a partition or a coordinator outage may
// still hold jobs the platform has since migrated elsewhere or
// resolved. The caller has already classified which reported jobs are
// provably stale; those copies are killed at the reporting node — one
// job must never run twice.
func (c *Coordinator) killOrphans(machineID string, orphans []string, now time.Time) {
	if len(orphans) == 0 {
		return
	}
	h := c.handle(machineID)
	if h == nil {
		return
	}
	for _, jobID := range orphans {
		if kerr := h.Kill(api.KillRequest{Envelope: c.envelope(), JobID: jobID}); kerr == nil {
			c.bus.Publish(eventbus.Event{Type: eventbus.JobKilled, Time: now,
				Job: jobID, Node: machineID,
				Detail: map[string]any{"reason": "orphan-reconciliation"}})
		}
	}
}

// Depart processes an announced departure (scheduled or temporary). The
// agent has already checkpointed and stopped its workloads; the
// coordinator migrates them and updates the node's standing.
func (c *Coordinator) Depart(req api.DepartRequest) error {
	if err := c.fence(req.LeaderEpoch); err != nil {
		return err
	}
	if _, err := c.authy.VerifySubject(req.Token, req.MachineID, c.clock.Now()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return c.HandleDeparture(req.MachineID, req.Reason)
}

// HandleDeparture migrates a departing node's jobs and records its
// standing. It is the convergence point for the announced path (REST or
// in-process notify) — emergency departures are handled by Sweep.
func (c *Coordinator) HandleDeparture(machineID string, reason api.DepartReason) error {
	if err := c.fence(0); err != nil {
		return err
	}
	now := c.clock.Now()
	if _, err := c.db.GetNode(machineID); err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, machineID)
	}
	err := c.db.UpdateNode(machineID, func(n *db.NodeRecord) {
		n.Status = db.NodeDeparted
		n.Departures++
		if !n.LastJoin.IsZero() && now.After(n.LastJoin) {
			n.TotalUptime += now.Sub(n.LastJoin)
		}
		for i := range n.GPUs {
			n.GPUs[i].Allocated = false
		}
	})
	if err != nil {
		return err
	}
	c.hb.Suspend(machineID)
	c.mu.Lock()
	c.temporary[machineID] = reason == api.DepartTemporary
	// The dedup high-water mark dies with the membership: a returning
	// node re-registers, which starts a fresh beat-sequence session, so
	// keeping the entry would only leak an entry per churned node.
	// A buffered-but-unflushed beat is dropped with it — the record is
	// leaving service, and a LastHeartbeat advance on a departed node
	// would contradict the departure.
	delete(c.beatSeq, machineID)
	delete(c.beats, machineID)
	c.mu.Unlock()
	c.bus.Publish(eventbus.Event{Type: eventbus.NodeDeparted, Time: now, Node: machineID,
		Detail: map[string]any{"reason": string(reason)}})

	mreason := migration.ReasonScheduled
	if reason == api.DepartTemporary {
		mreason = migration.ReasonTemporary
	}
	c.migrateJobsFrom(machineID, mreason)
	return nil
}

// Sweep runs one failure-detection pass: nodes silent for the configured
// threshold are marked unreachable and their jobs migrated (emergency
// path). Daemons run this automatically; simulations may call it
// directly.
func (c *Coordinator) Sweep() {
	if c.isStopped() || !c.Leading() {
		return
	}
	now := c.clock.Now()
	for _, nodeID := range c.hb.Lost(now) {
		_ = c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
			n.Status = db.NodeUnreachable
			n.Departures++
			if !n.LastJoin.IsZero() && now.After(n.LastJoin) {
				n.TotalUptime += now.Sub(n.LastJoin)
			}
			for i := range n.GPUs {
				n.GPUs[i].Allocated = false
			}
		})
		c.mu.Lock()
		// Same pruning as the announced-departure path: swept-dead nodes
		// must not accumulate dedup entries (unbounded growth under
		// churn), and any beat still parked in the coalescing buffer is
		// from before the silence — advancing LastHeartbeat now would
		// contradict the unreachable verdict.
		delete(c.beatSeq, nodeID)
		delete(c.beats, nodeID)
		c.mu.Unlock()
		c.bus.Publish(eventbus.Event{Type: eventbus.NodeUnreachable, Time: now, Node: nodeID})
		c.migrateJobsFrom(nodeID, migration.ReasonEmergency)
	}
	c.sweepHealth(now)
}

// handleNodeReturn restores a node to service and migrates back the jobs
// that prefer it (§4: 67% of displaced workloads migrated back).
func (c *Coordinator) handleNodeReturn(nodeID string, now time.Time) {
	_ = c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
		if n.Status != db.NodeActive && n.Status != db.NodePaused {
			n.Status = db.NodeActive
		}
		n.LastJoin = now
	})
	c.bus.Publish(eventbus.Event{Type: eventbus.NodeReturned, Time: now, Node: nodeID})
	c.MigrateBack(nodeID)
	c.TrySchedule()
}

// --- Job lifecycle ---

// SubmitJob enqueues a user job and attempts immediate placement.
func (c *Coordinator) SubmitJob(req api.SubmitJobRequest) (string, error) {
	if err := c.fence(req.LeaderEpoch); err != nil {
		return "", err
	}
	if req.Kind != "batch" && req.Kind != "interactive" {
		return "", fmt.Errorf("core: unknown job kind %q", req.Kind)
	}
	if req.ImageName == "" {
		return "", errors.New("core: empty image name")
	}
	now := c.clock.Now()
	c.mu.Lock()
	c.jobSeq++
	jobID := fmt.Sprintf("job-%06d", c.jobSeq)
	c.mu.Unlock()

	rec := db.JobRecord{
		ID: jobID, User: req.User, Kind: req.Kind, State: db.JobPending,
		Priority: req.Priority, GPUMemMiB: req.GPUMemMiB,
		CapabilityMajor: req.CapabilityMajor, CapabilityMinor: req.CapabilityMinor,
		StoragePrefs: req.StoragePrefs, SubmittedAt: now,
		// The relaunch spec rides in the record so a coordinator
		// recovered from snapshot + WAL can reschedule this job without
		// a resubmission.
		ImageName: req.ImageName, Entrypoint: req.Entrypoint,
		CheckpointIntervalSec: req.CheckpointIntervalSec,
		SessionSeconds:        req.SessionSeconds, Training: req.Training,
	}
	if err := c.db.InsertJob(rec); err != nil {
		return "", err
	}
	c.bus.Publish(eventbus.Event{Type: eventbus.JobSubmitted, Time: now, Job: jobID})
	c.TrySchedule()
	return jobID, nil
}

// JobStatus reports one job.
func (c *Coordinator) JobStatus(jobID string) (api.JobStatus, error) {
	rec, err := c.db.GetJob(jobID)
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	return api.JobStatus{
		JobID: rec.ID, State: rec.State, NodeID: rec.NodeID, DeviceID: rec.DeviceID,
		Migrations: rec.Migrations, Submitted: rec.SubmittedAt,
		Started: rec.StartedAt, Finished: rec.FinishedAt,
	}, nil
}

// Jobs lists all jobs' statuses, newest first.
func (c *Coordinator) Jobs() []api.JobStatus {
	recs := c.db.ListJobs()
	out := make([]api.JobStatus, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		rec := recs[i]
		out = append(out, api.JobStatus{
			JobID: rec.ID, State: rec.State, NodeID: rec.NodeID, DeviceID: rec.DeviceID,
			Migrations: rec.Migrations, Submitted: rec.SubmittedAt,
			Started: rec.StartedAt, Finished: rec.FinishedAt,
		})
	}
	return out
}

// Nodes lists all registered nodes.
func (c *Coordinator) Nodes() []api.NodeSummary {
	recs := c.db.ListNodes()
	out := make([]api.NodeSummary, 0, len(recs))
	for _, n := range recs {
		out = append(out, api.NodeSummary{
			ID: n.ID, Status: n.Status, GPUs: n.GPUs,
			LastHeartbeat: n.LastHeartbeat, Departures: n.Departures,
		})
	}
	return out
}

// KillJob terminates a job wherever it runs.
func (c *Coordinator) KillJob(jobID string) error {
	if err := c.fence(0); err != nil {
		return err
	}
	rec, err := c.db.GetJob(jobID)
	if err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	now := c.clock.Now()
	if rec.State == db.JobRunning && rec.NodeID != "" {
		if h := c.handle(rec.NodeID); h != nil {
			// Node may be gone; record the kill anyway.
			_ = h.Kill(api.KillRequest{Envelope: c.envelope(), JobID: jobID})
		}
		c.freeDevice(rec.NodeID, rec.DeviceID)
		_ = c.db.CloseAllocation(jobID, now)
	}
	err = c.db.UpdateJob(jobID, func(j *db.JobRecord) {
		j.State = db.JobKilled
		j.FinishedAt = now
	})
	c.bus.Publish(eventbus.Event{Type: eventbus.JobKilled, Time: now, Job: jobID})
	c.TrySchedule()
	return err
}

// DefaultBatchSize is how many pending requests one scheduling cycle
// drains when Config.BatchSize is unset.
const DefaultBatchSize = 32

// TrySchedule drains the pending queue in priority order, placing jobs
// batch by batch: each cycle takes up to BatchSize requests, runs one
// PlaceBatch over a candidate set built once, and commits the
// placements. Cycles repeat while they make progress, so a deep queue
// still drains fully; a cycle that commits nothing stops the loop (the
// cluster is effectively full for this queue shape).
func (c *Coordinator) TrySchedule() {
	for c.scheduleBatch() {
	}
}

// scheduleBatch runs one batch-scheduling cycle and reports whether any
// placement was committed. Placements are transactional per member: the
// database is only mutated after the agent's Launch succeeds, so a
// failing member leaves no stranded device reservation — its in-batch
// reservation dies with the batch and the job simply stays pending.
func (c *Coordinator) scheduleBatch() bool {
	if c.isStopped() || !c.Leading() {
		return false
	}
	if c.db.CountJobsInState(db.JobPending) == 0 {
		return false
	}
	now := c.clock.Now()

	// Assemble the batch: the head of the priority queue. Relaunch
	// metadata lives in the record itself, so jobs restored from a
	// snapshot + WAL are as schedulable as freshly submitted ones; only
	// legacy records without a spec are skipped.
	var (
		jobs []db.JobRecord
		reqs []scheduler.Request
	)
	for _, job := range c.db.JobsInState(db.JobPending) {
		if len(reqs) >= c.cfg.BatchSize {
			break
		}
		if job.ImageName == "" {
			continue
		}
		jobs = append(jobs, job)
		reqs = append(reqs, scheduler.Request{
			JobID:      job.ID,
			GPUMemMiB:  job.GPUMemMiB,
			Capability: api.CapabilityOf(job.CapabilityMajor, job.CapabilityMinor),
			Priority:   job.Priority,
			LongRunning: job.Training != nil &&
				job.Training.TotalSteps > 10000,
		})
	}
	if len(reqs) == 0 {
		return false
	}
	c.met.batchFill.Observe(float64(len(reqs)))

	// Real time, per decision: scheduling latency is a real cost, and
	// each member's own latency feeds the histogram so batching cannot
	// flatten the tail quantiles.
	results := c.sched.Place(reqs, c.db, now)

	progressed := false
	for i, res := range results {
		c.schedLatency.Observe(res.Latency.Seconds())
		if res.Err != nil {
			continue // stays pending
		}
		// A requeued job resumes from its latest checkpoint, if any.
		var restoreSeq int
		var restoreStep int64
		if ck, cerr := c.ckpts.Latest(jobs[i].ID); cerr == nil {
			restoreSeq = ck.Seq
			restoreStep = ck.Progress.Step
		}
		if c.place(jobs[i], res.Placement, restoreSeq, restoreStep, now) {
			progressed = true
		}
	}
	return progressed
}

// place launches a (possibly restored) job per a placement decision and
// reports whether the placement committed. On any failure nothing has
// been written to the database, so the decision rolls back to "job
// still pending" with no device held.
func (c *Coordinator) place(job db.JobRecord, p scheduler.Placement, restoreSeq int, restoreStep int64, now time.Time) bool {
	h := c.handle(p.NodeID)
	if h == nil {
		return false
	}
	resp, err := h.Launch(api.LaunchRequest{
		Envelope: c.envelope(),
		JobID:    job.ID, ImageName: job.ImageName, Kind: job.Kind,
		Entrypoint: job.Entrypoint, GPUMemMiB: job.GPUMemMiB,
		CapabilityMajor: job.CapabilityMajor, CapabilityMinor: job.CapabilityMinor,
		CheckpointIntervalSec: job.CheckpointIntervalSec,
		RestoreFromSeq:        restoreSeq, RestoreStep: restoreStep,
		Training: job.Training, SessionSeconds: job.SessionSeconds,
		StoragePrefs: job.StoragePrefs,
	})
	if err != nil {
		// Node said no (paused, race on capacity): reflect reality and
		// leave the job pending.
		return false
	}

	_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) {
		j.State = db.JobRunning
		j.NodeID = p.NodeID
		j.DeviceID = resp.DeviceID
		j.ContainerID = resp.ContainerID
		j.PlacedAt = now
		if j.PreferredNode == "" {
			j.PreferredNode = p.NodeID
		}
		if j.StartedAt.IsZero() {
			j.StartedAt = now
		}
	})
	c.markDevice(p.NodeID, resp.DeviceID, true)
	c.db.RecordAllocation(db.AllocationRecord{
		JobID: job.ID, NodeID: p.NodeID, DeviceID: resp.DeviceID, Start: now,
	})
	if job.Kind == "interactive" {
		c.mu.Lock()
		c.interactiveCount++
		c.mu.Unlock()
	}
	c.bus.Publish(eventbus.Event{Type: eventbus.JobScheduled, Time: now,
		Job: job.ID, Node: p.NodeID,
		Detail: map[string]any{"device": resp.DeviceID, "reliability": p.Reliability}})
	return true
}

// --- Agent notifications (core implements agent.Notifier) ---

// JobUpdate receives job state changes from agents. Updates from a
// node the job is no longer placed on are dropped: after a partition,
// the old host may still be running a copy the platform has since
// migrated elsewhere, and letting its stale completion close the new
// placement's allocation would corrupt the resource view (heartbeat
// reconciliation kills such orphans).
func (c *Coordinator) JobUpdate(machineID, jobID string, state db.JobState, step int64) {
	if c.fence(0) != nil {
		// A deposed or standby coordinator must not resolve jobs; the
		// agent's report reaches the real leader through its endpoint
		// failover, and heartbeat anti-entropy covers a dropped one.
		return
	}
	now := c.clock.Now()
	switch state {
	case db.JobCompleted, db.JobFailed:
		// Idempotency pre-check, outside the record lock: a duplicate
		// delivery of a terminal report (the job already resolved, or
		// the record no longer points at the sender) must be a true
		// no-op — not even a no-change UpdateJob, which would still
		// advance the mutation sequence and re-stamp FinishedAt. A
		// duplicate racing the original on the concurrent HTTP path can
		// still slip past this read and reach UpdateJob; the in-lock
		// guards below keep the record correct there, at the cost of
		// one no-change mutation record.
		if cur, err := c.db.GetJob(jobID); err != nil ||
			cur.State == db.JobCompleted || cur.State == db.JobFailed ||
			cur.State == db.JobKilled ||
			(machineID != "" && cur.NodeID != machineID) {
			return
		}
		// The stale-node check also runs inside the record lock: on the
		// concurrent HTTP path the job may be requeued and re-placed
		// between the snapshot read above and this update, and a report
		// from the old host must lose that race, not resolve the new
		// copy.
		var nodeID, deviceID string
		applied := false
		err := c.db.UpdateJob(jobID, func(j *db.JobRecord) {
			if machineID != "" && j.NodeID != machineID {
				return
			}
			if j.State == db.JobCompleted || j.State == db.JobFailed || j.State == db.JobKilled {
				return
			}
			nodeID, deviceID = j.NodeID, j.DeviceID
			j.State = state
			j.FinishedAt = now
			applied = true
		})
		if err != nil || !applied {
			return
		}
		_ = c.db.CloseAllocation(jobID, now)
		c.freeDevice(nodeID, deviceID)
		evType := eventbus.JobCompleted
		if state == db.JobFailed {
			evType = eventbus.JobFailed
		}
		c.bus.Publish(eventbus.Event{Type: evType, Time: now, Job: jobID, Node: machineID,
			Detail: map[string]any{"step": step}})
		c.TrySchedule()
	}
}

// Departing receives announced departures from in-process agents.
func (c *Coordinator) Departing(machineID string, reason api.DepartReason) {
	_ = c.HandleDeparture(machineID, reason)
}

// --- Migration execution ---

// migrateJobsFrom relaunches every job that was on nodeID. All of the
// node's jobs are planned as one batch, so their restore transfers
// overlap on the LAN model.
func (c *Coordinator) migrateJobsFrom(nodeID string, reason migration.Reason) {
	now := c.clock.Now()
	jobs := c.db.JobsOnNode(nodeID)
	if len(jobs) == 0 {
		return
	}
	planned := make([]db.JobRecord, 0, len(jobs))
	for _, job := range jobs {
		if job.ImageName == "" {
			continue // a legacy record without a relaunch spec
		}
		planned = append(planned, job)
		_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) { j.State = db.JobMigrating })
		_ = c.db.CloseAllocation(job.ID, now)
		c.mig.RecordAttempt(reason)
	}

	items := c.mig.PlanBatch(planned, reason, now)
	for i, item := range items {
		if item.Err != nil {
			// No target now: requeue; a later TrySchedule will pick the
			// job up when capacity returns. Counted as a failure for the
			// immediate-migration statistic.
			c.mig.RecordFailure(reason)
			c.requeueFromCheckpoint(planned[i].ID, now)
			continue
		}
		c.executePlan(planned[i], item.Plan, reason, now)
	}
}

// executePlan launches the displaced job on its planned target. The
// relaunch happens only after the checkpoint data has crossed the LAN
// (plan.TransferTime) — migration downtime is real time, not metadata.
func (c *Coordinator) executePlan(job db.JobRecord, plan migration.Plan, reason migration.Reason, now time.Time) {
	if plan.TransferTime > 0 {
		c.clock.AfterFunc(plan.TransferTime, func() {
			c.finishMigration(job, plan, reason)
		})
		return
	}
	c.finishMigration(job, plan, reason)
}

// finishMigration performs the relaunch once restore data is in place.
func (c *Coordinator) finishMigration(job db.JobRecord, plan migration.Plan, reason migration.Reason) {
	if c.isStopped() || !c.Leading() {
		// The transfer timer outlived the coordinator (kill/restart) or
		// its leadership (deposed mid-transfer): the successor's
		// RecoverState requeues this job.
		return
	}
	now := c.clock.Now()
	// The job may have been killed (or otherwise resolved) while its
	// checkpoint was in flight.
	cur, err := c.db.GetJob(job.ID)
	if err != nil || cur.State != db.JobMigrating {
		return
	}
	// The target may have degraded below the unhealthy threshold while
	// the checkpoint was in transit. Landing there would be a fresh
	// placement on a node the scheduler now excludes — requeue instead
	// and let the next batch pick a healthy target.
	if tgt, err := c.db.GetNode(plan.Placement.NodeID); err != nil ||
		tgt.HealthScore() < monitor.UnhealthyBelow {
		c.mig.RecordFailure(reason)
		c.requeueFromCheckpoint(job.ID, now)
		return
	}
	c.place(job, plan.Placement, plan.RestoreSeq, plan.RestoreStep, now)

	after, err := c.db.GetJob(job.ID)
	if err != nil || after.State != db.JobRunning {
		c.mig.RecordFailure(reason)
		c.requeueFromCheckpoint(job.ID, now)
		return
	}
	_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) { j.Migrations++ })
	c.mig.RecordSuccess(reason, 0, plan.TransferTime)
	evType := eventbus.JobMigrated
	if reason == migration.ReasonMigrateBack {
		evType = eventbus.JobMigratedBack
	}
	c.bus.Publish(eventbus.Event{Type: evType, Time: now, Job: job.ID,
		Node: plan.Placement.NodeID,
		Detail: map[string]any{
			"from": plan.From, "restore_step": plan.RestoreStep,
			"transfer_bytes": plan.TransferBytes, "reason": string(reason),
		}})
}

// requeueFromCheckpoint returns a displaced job to the pending queue; it
// keeps its checkpoint state, so the next placement resumes correctly.
func (c *Coordinator) requeueFromCheckpoint(jobID string, now time.Time) {
	_ = c.db.UpdateJob(jobID, func(j *db.JobRecord) {
		j.State = db.JobPending
		j.NodeID = ""
		j.DeviceID = ""
	})
	c.bus.Publish(eventbus.Event{Type: eventbus.JobRequeued, Time: now, Job: jobID})
}

// MigrateBack moves jobs that prefer nodeID (their original home) back
// onto it, checkpointing them at their current host first.
func (c *Coordinator) MigrateBack(nodeID string) {
	now := c.clock.Now()
	c.mu.Lock()
	wasTemporary := c.temporary[nodeID]
	delete(c.temporary, nodeID)
	c.mu.Unlock()
	if !wasTemporary {
		return
	}
	// Checkpoint every candidate at its current host first, then plan
	// them as one batch so two returners cannot be sent to one device.
	var (
		jobs  []db.JobRecord
		hosts []AgentHandle
		cks   []api.CheckpointResponse
	)
	for _, job := range c.db.ListJobs() {
		if job.PreferredNode != nodeID || job.NodeID == nodeID || job.State != db.JobRunning {
			continue
		}
		if job.ImageName == "" || job.Training == nil {
			continue // only stateful batch jobs migrate back
		}
		cur := c.handle(job.NodeID)
		if cur == nil {
			continue
		}
		ck, err := cur.Checkpoint(job.ID, true)
		if err != nil {
			continue
		}
		c.mig.RecordAttempt(migration.ReasonMigrateBack)
		jobs = append(jobs, job)
		hosts, cks = append(hosts, cur), append(cks, ck)
	}
	for i, item := range c.mig.PlanBatch(jobs, migration.ReasonMigrateBack, now) {
		job, plan := jobs[i], item.Plan
		if item.Err != nil || plan.Placement.NodeID != nodeID {
			c.mig.RecordFailure(migration.ReasonMigrateBack)
			continue
		}
		if err := hosts[i].Kill(api.KillRequest{Envelope: c.envelope(), JobID: job.ID}); err != nil {
			c.mig.RecordFailure(migration.ReasonMigrateBack)
			continue
		}
		c.freeDevice(job.NodeID, job.DeviceID)
		_ = c.db.CloseAllocation(job.ID, now)
		_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) { j.State = db.JobMigrating })
		plan.RestoreSeq = cks[i].Seq
		plan.RestoreStep = cks[i].Step
		c.executePlan(job, plan, migration.ReasonMigrateBack, now)
	}
}

// --- helpers ---

func (c *Coordinator) handle(nodeID string) AgentHandle {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agents[nodeID]
}

func (c *Coordinator) markDevice(nodeID, deviceID string, allocated bool) {
	_ = c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
		for i := range n.GPUs {
			if n.GPUs[i].DeviceID == deviceID {
				n.GPUs[i].Allocated = allocated
			}
		}
	})
}

func (c *Coordinator) freeDevice(nodeID, deviceID string) {
	if nodeID == "" || deviceID == "" {
		return
	}
	c.markDevice(nodeID, deviceID, false)
}

// LocalAgent adapts an in-process agent to the AgentHandle interface.
type LocalAgent struct {
	// A is the wrapped agent.
	A interface {
		Launch(api.LaunchRequest) (api.LaunchResponse, error)
		KillJob(api.KillRequest) error
		CheckpointNow(jobID string, incremental bool) (api.CheckpointResponse, error)
	}
}

// Launch implements AgentHandle.
func (l LocalAgent) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	return l.A.Launch(req)
}

// Kill implements AgentHandle.
func (l LocalAgent) Kill(req api.KillRequest) error { return l.A.KillJob(req) }

// Checkpoint implements AgentHandle.
func (l LocalAgent) Checkpoint(jobID string, incremental bool) (api.CheckpointResponse, error) {
	return l.A.CheckpointNow(jobID, incremental)
}
