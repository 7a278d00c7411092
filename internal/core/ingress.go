package core

import (
	"errors"
	"fmt"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
)

// Agent ingress: registration and the heartbeat path. A heartbeat runs
// through the stages heartbeatAt lists, in order, sharing one beat context;
// direct beats (Heartbeat) and rolled-up ones (IngestAggregated) enter
// through the same heartbeatAt, so both fold to identical store state.

// Register admits a node (or re-admits a returning one) and returns its
// credentials. handle is the transport used to reach the node's agent.
func (c *Coordinator) Register(req api.RegisterRequest, handle AgentHandle) (api.RegisterResponse, error) {
	if req.MachineID == "" {
		return api.RegisterResponse{}, errors.New("core: empty machine id")
	}
	if req.ProtocolVersion < 0 || req.ProtocolVersion > api.ProtocolVersion {
		return api.RegisterResponse{}, fmt.Errorf("core: protocol version %d unsupported (coordinator speaks up to %d)",
			req.ProtocolVersion, api.ProtocolVersion)
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
	known, returning := false, false
	if old, err := c.db.GetNode(req.MachineID); err == nil {
		known = true
		returning = old.Status == db.NodeDeparted || old.Status == db.NodeUnreachable
		rec.RegisteredAt = old.RegisteredAt
		rec.Departures = old.Departures
		rec.TotalUptime = old.TotalUptime
		// Standing is the platform's knowledge, not the agent's: after a
		// coordinator restart or failover every node re-registers, and a
		// gray-failing one must not come back fully healthy, nor one back
		// from a temporary departure forget the jobs it displaced.
		rec.Health, rec.HealthAt = old.Health, old.HealthAt
		rec.ReturnExpected = old.ReturnExpected
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

	c.trace.RecordAt(now, obs.KindNodeRegistered, "", req.MachineID, nil)
	// A node back from a partition may still run copies of jobs requeued
	// meanwhile. Their devices read free in the store, so they die here,
	// before this registration's pass sends the node a launch its agent
	// would refuse.
	var orphans []string
	for _, jobID := range req.RunningJobs {
		if _, orphan := c.reportedCopy(req.MachineID, jobID, now); orphan {
			orphans = append(orphans, jobID)
		}
	}
	c.killOrphans(req.MachineID, orphans, now)
	if returning {
		c.handleNodeReturn(req.MachineID, now)
	} else if known {
		c.offerMigrateBack(req.MachineID, now)
	}
	c.trySchedule()
	return api.RegisterResponse{
		Token: token, HeartbeatInterval: c.cfg.HeartbeatInterval,
		LeaderEpoch: c.Epoch(),
	}, nil
}

// Heartbeat processes a periodic agent report.
func (c *Coordinator) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	if err := c.fence(req.LeaderEpoch); err != nil {
		return api.HeartbeatResponse{}, err
	}
	return c.heartbeatAt(req, c.clock.Now())
}

// beat is the context one heartbeat's stages share: the request and its
// receipt time going in, what each stage learned for the ones after it,
// and the reply coming out.
type beat struct {
	req api.HeartbeatRequest
	now time.Time

	// claimSequence: the dedup mark this beat replaced, and whether the
	// claim stands (acknowledge) or must be handed back (any early exit).
	claimed bool
	prevSeq uint64
	applied bool

	// loadNode: the record as read before this beat's updates.
	rec       db.NodeRecord
	newStatus db.NodeStatus

	// classify: the report compared against the node's placements.
	suspicious bool
	orphans    []string
	lost       []db.JobRecord
	health     []gpu.HealthEvent

	resp api.HeartbeatResponse
	err  error
}

// heartbeatAt is the fenced heartbeat body with an explicit receipt
// time. The direct path stamps clock.Now(); aggregated ingestion
// (IngestAggregated) replays each rolled-up beat through here with the
// aggregator's receipt time, so both paths fold to byte-identical
// store state — same dedup, same reconciliation, same coalescing.
// Callers must have fenced the request's epoch already.
func (c *Coordinator) heartbeatAt(req api.HeartbeatRequest, now time.Time) (api.HeartbeatResponse, error) {
	b := beat{req: req, now: now}
	defer c.releaseClaim(&b)
	// The heartbeat path: each stage reads and extends the beat, and one
	// that returns true has written the reply and ends it. What a stage
	// may touch is part of its contract (docs/ARCHITECTURE.md "Heartbeat
	// stages"): only commit writes the node record, only observe feeds
	// the monitor, the health fold and the sample table, and only
	// reconcile writes jobs or calls agents.
	_ = c.authenticate(&b) || c.claimSequence(&b) || c.loadNode(&b) || c.classify(&b) ||
		c.commit(&b) || c.observe(&b) || c.reconcile(&b) || c.acknowledge(&b)
	return b.resp, b.err
}

// reregister ends a beat by asking the agent for a fresh registration.
func (b *beat) reregister() bool {
	b.resp = api.HeartbeatResponse{Reregister: true}
	return true
}

// authenticate verifies the node's token. Long-lived nodes outlive
// their credentials (semester-scale participation): an expired token
// asks for a fresh registration rather than dropping the node.
func (c *Coordinator) authenticate(b *beat) bool {
	if _, err := c.authy.VerifySubject(b.req.Token, b.req.MachineID, b.now); err != nil {
		if errors.Is(err, auth.ErrExpired) {
			return b.reregister()
		}
		b.err = fmt.Errorf("%w: %v", ErrBadToken, err)
		return true
	}
	return false
}

// claimSequence is the duplicate-delivery guard: every beat an agent
// builds carries a fresh sequence number, so a beat at or below the
// high-water mark is a replay (a retried request, a duplicated packet)
// of a report already fully processed. It is acknowledged — the
// sender's retry loop must stop — but causes no state change: no
// samples appended, no telemetry refresh, no anti-entropy scan. A beat
// without a sequence (zero) is refused: it could be neither deduplicated
// nor told apart from a replay. The sequence is *claimed* up front — a
// concurrent duplicate of an in-flight beat must not start a second
// pass through the stages — and released (releaseClaim) if the beat
// bounces early: a bounced beat was not applied, and its retry must be
// processed, not swallowed.
func (c *Coordinator) claimSequence(b *beat) bool {
	id, seq := b.req.MachineID, b.req.BeatSeq
	if seq == 0 {
		b.err = errors.New("core: heartbeat without a beat sequence")
		return true
	}
	c.mu.Lock()
	if seq > c.beatSeq[id] {
		b.claimed, b.prevSeq = true, c.beatSeq[id]
		c.beatSeq[id] = seq
		c.mu.Unlock()
		return false
	}
	c.mu.Unlock()
	c.met.heartbeatDups.Inc()
	// A replay is only acknowledged while the node is still a live
	// member, that is while it holds an agent handle. If the node was
	// swept dead or departed, or the handle died with an old process,
	// the original beat's processing no longer stands: ask for a fresh
	// registration instead of silencing the agent's retry loop.
	if c.handle(id) == nil {
		return b.reregister()
	}
	b.resp = api.HeartbeatResponse{Acknowledged: true}
	return true
}

// releaseClaim hands a claimed sequence back when the beat ended before
// acknowledge, unless a later beat has already moved the mark.
func (c *Coordinator) releaseClaim(b *beat) {
	if !b.claimed || b.applied {
		return
	}
	c.mu.Lock()
	if c.beatSeq[b.req.MachineID] == b.req.BeatSeq {
		c.beatSeq[b.req.MachineID] = b.prevSeq
	}
	c.mu.Unlock()
}

// loadNode reads the node record and checks the transport to its agent.
// A node without a handle is no member of this coordinator's session:
// it left service (departed, or swept unreachable), or its record
// survived a restart (snapshot + WAL) that the transport did not. Either
// way it re-registers, which is the one way back into service.
func (c *Coordinator) loadNode(b *beat) bool {
	c.met.heartbeats.Inc()
	rec, err := c.db.GetNode(b.req.MachineID)
	if err != nil || c.handle(b.req.MachineID) == nil {
		return b.reregister()
	}
	b.rec = rec
	b.newStatus = db.NodeActive
	if b.req.Paused {
		b.newStatus = db.NodePaused
	}
	return false
}

// classify compares the report with the node's recorded placements —
// database-side orphan detection. A node that lost power and came back
// inside the missed-heartbeat window (so the sweep never fired) lost
// its workloads, but its job records still read Running; entries the
// platform cannot match to a placement on this node (unknown, stale or
// foreign jobs) mark the report suspicious, which forces the
// lost-placement scan — such a job may be occupying a device and keeping
// the counts equal while a genuine placement went missing — and the
// provably stale ones become orphans for reconcile to kill. A copy is no
// orphan, whatever its record reads, while a launch of it to this node
// is in flight (the agent runs it before place commits) or has committed
// since the read (the mark clears after the commit), and neither is a
// placement elsewhere in the heartbeat grace, which the report may predate.
//
// Health events ride the beat and are bounded here too — a hostile or
// buggy agent must not widen a fold beyond what the protocol promises.
// Sitting after claimSequence, a replayed beat never folds twice.
func (c *Coordinator) classify(b *beat) bool {
	reported := make(map[string]bool, len(b.req.RunningJobs))
	for _, jobID := range b.req.RunningJobs {
		reported[jobID] = true
		placed, orphan := c.reportedCopy(b.req.MachineID, jobID, b.now)
		b.suspicious = b.suspicious || !placed
		if orphan {
			b.orphans = append(b.orphans, jobID)
		}
	}
	b.lost = c.lostPlacements(b.rec, reported, b.suspicious, b.now)
	b.health = b.req.HealthEvents
	if len(b.health) > api.MaxHealthEventsPerBeat {
		b.health = b.health[:api.MaxHealthEventsPerBeat]
	}
	return false
}

// reportedCopy judges one job that nodeID reports running, for a beat
// (classify) and a registration (Register) alike: placed when its record
// places it on the node, orphan when the copy is provably stale. A job
// the platform never tracked is neither.
func (c *Coordinator) reportedCopy(nodeID, jobID string, now time.Time) (placed, orphan bool) {
	jrec, err := c.db.GetJob(jobID)
	if err != nil {
		return false, false // agent-local work the platform never tracked
	}
	if jrec.NodeID == nodeID && jrec.State == db.JobRunning {
		return true, false
	}
	spared := c.launchingTo(jobID) == nodeID ||
		jrec.State == db.JobRunning && now.Sub(jrec.PlacedAt) < c.cfg.HeartbeatInterval ||
		c.placedOn(jobID, nodeID)
	return false, !spared
}

// launchingTo reports the node a launch of jobID is in flight to, or "".
func (c *Coordinator) launchingTo(jobID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.launching[jobID]
}

// placedOn reads job's record and reports whether it places the job on nodeID.
func (c *Coordinator) placedOn(jobID, nodeID string) bool {
	j, err := c.db.GetJob(jobID)
	return err == nil && j.NodeID == nodeID && j.State == db.JobRunning
}

// lostPlacements compares the heartbeat report against the node's
// recorded placements and returns the running jobs the node has stopped
// reporting (to be requeued), bar a job whose move off the node is in
// flight: its source stopped it before the launch (relocateLive). rec
// is the node record as read before this heartbeat's updates; its
// device flags are the store's count of running jobs. The scan over the node's jobs runs only when a cheap
// divergence signal fires — a suspicious report, or the held devices
// disagreeing with the reported jobs in number — so steady-state
// heartbeats stay O(1) in the job table.
func (c *Coordinator) lostPlacements(rec db.NodeRecord, reported map[string]bool, suspicious bool, now time.Time) (lost []db.JobRecord) {
	held := 0
	for _, g := range rec.GPUs {
		if g.Allocated {
			held++
		}
	}
	if !suspicious && held == len(reported) {
		return nil
	}
	for _, job := range c.db.JobsOnNode(rec.ID) {
		if reported[job.ID] || c.launchingTo(job.ID) != "" {
			continue
		}
		if !job.PlacedAt.IsZero() && now.Sub(job.PlacedAt) < c.cfg.HeartbeatInterval {
			// Placed after the agent built this report; the next
			// report decides.
			continue
		}
		lost = append(lost, job)
	}
	return lost
}

// commit writes the node record. Steady state at fleet scale changes
// nothing but LastHeartbeat: that advance parks in the coalescing
// buffer — a tick at HeartbeatInterval/4 commits the whole batch as one
// compact MutBeat record per shard — instead of pushing a full node
// after-image through the WAL for every beat. Every other beat takes
// one UpdateNode of status and LastHeartbeat. Device occupancy is not
// the beat's to write: the store derives it from the job table. A node
// swept or departed since loadNode stays out of service, and the beat
// asks to re-register.
func (c *Coordinator) commit(b *beat) bool {
	if c.isNoopBeat(b) {
		c.enqueueBeat(b.req.MachineID, b.now)
		return false
	}
	// The update closure crosses the Store interface, so whatever it
	// captures is heap-allocated: it captures copies, and the beat itself
	// stays on heartbeatAt's stack.
	now, status := b.now, b.newStatus
	left := false
	err := c.db.UpdateNode(b.req.MachineID, func(n *db.NodeRecord) {
		if left = n.Status == db.NodeDeparted || n.Status == db.NodeUnreachable; left {
			return
		}
		n.LastHeartbeat = now
		n.Status = status
	})
	if err != nil || left {
		return b.reregister()
	}
	return false
}

// observe feeds the beat to everything that watches nodes: the failure
// detector (which must see every arrival), the health fold, and the
// telemetry history kept for capacity planning (§3.2). Samples are soft
// state — an in-memory append the beat never waits on the log for; a
// checkpoint carries them across a clean restart.
func (c *Coordinator) observe(b *beat) bool {
	c.hb.Beat(b.req.MachineID, b.now)
	if len(b.health) > 0 {
		c.ingestHealth(b.req.MachineID, b.health, b.now)
	}
	if len(b.req.Telemetry) > 0 {
		samples := make([]db.Sample, 0, 2*len(b.req.Telemetry))
		for _, tel := range b.req.Telemetry {
			samples = append(samples,
				db.Sample{Time: b.now, NodeID: b.req.MachineID, DeviceID: tel.DeviceID,
					Metric: "gpu_utilization", Value: tel.Utilization},
				db.Sample{Time: b.now, NodeID: b.req.MachineID, DeviceID: tel.DeviceID,
					Metric: "gpu_memory_used_mib", Value: float64(tel.UsedMemMiB)})
		}
		c.db.AppendSamples(samples)
	}
	return false
}

// reconcile acts on what classify found. The host no longer executes
// the lost placements: they are requeued from their last checkpoints,
// exactly like an emergency displacement.
func (c *Coordinator) reconcile(b *beat) bool {
	for _, job := range b.lost {
		c.requeueFromCheckpoint(job, b.now)
	}
	c.killOrphans(b.req.MachineID, b.orphans, b.now)
	c.trySchedule()
	return false
}

// acknowledge ends a fully applied beat: the claimed sequence stays as
// the dedup high-water mark.
func (c *Coordinator) acknowledge(b *beat) bool {
	b.applied = true
	b.resp = api.HeartbeatResponse{Acknowledged: true, LeaderEpoch: c.Epoch()}
	return true
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
			c.trace.RecordAt(now, obs.KindJobKilled, jobID, machineID,
				map[string]string{"reason": "orphan-reconciliation"})
		}
	}
}
