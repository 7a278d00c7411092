package core

import (
	"errors"
	"fmt"
	"slices"
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
		// So is a placement: a device the record holds stays held, even
		// when a rebooted agent reports it free. The new session's first
		// beat then finds the jobs the reboot killed (lostPlacements) and
		// requeues them, instead of leaving them running on a free device.
		rec.GPUs = slices.Clone(req.GPUs)
		for i := range rec.GPUs {
			for _, g := range old.GPUs {
				if g.Allocated && g.DeviceID == rec.GPUs[i].DeviceID {
					rec.GPUs[i].Allocated = true
				}
			}
		}
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
	if returning {
		c.handleNodeReturn(req.MachineID, now)
	} else if known {
		c.offerMigrateBack(req.MachineID, now)
	}
	c.trySchedule()
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
	protected  map[string]bool
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
// provably stale ones become orphans for reconcile to kill. A pending
// or migrating record is no orphan while a launch of it to this node is
// in flight (the agent runs it before place commits) or has committed
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
		jrec, err := c.db.GetJob(jobID)
		if err != nil {
			b.suspicious = true // agent-local work the platform never tracked
			continue
		}
		if jrec.NodeID == b.req.MachineID &&
			(jrec.State == db.JobRunning || jrec.State == db.JobMigrating) {
			continue // legitimate placement
		}
		b.suspicious = true
		c.mu.Lock()
		launching := c.launching[jobID] == b.req.MachineID
		c.mu.Unlock()
		if jrec.State == db.JobRunning && b.now.Sub(jrec.PlacedAt) < c.cfg.HeartbeatInterval ||
			(jrec.State == db.JobPending || jrec.State == db.JobMigrating) && (launching || c.placedOn(jobID, b.req.MachineID)) {
			continue
		}
		b.orphans = append(b.orphans, jobID)
	}
	b.lost, b.protected = c.lostPlacements(b.rec, reported, b.req.Telemetry, b.suspicious, b.now)
	b.health = b.req.HealthEvents
	if len(b.health) > api.MaxHealthEventsPerBeat {
		b.health = b.health[:api.MaxHealthEventsPerBeat]
	}
	return false
}

// placedOn reads job's record and reports whether it places the job on nodeID.
func (c *Coordinator) placedOn(jobID, nodeID string) bool {
	j, err := c.db.GetJob(jobID)
	return err == nil && j.NodeID == nodeID && (j.State == db.JobRunning || j.State == db.JobMigrating)
}

// lostPlacements compares the heartbeat report against the node's
// recorded placements. It returns the running jobs the node has
// stopped reporting (to be requeued) and the devices of just-placed
// jobs whose absence from the report is not yet meaningful (their
// allocation flags must not be refreshed from this report). rec is the
// node record as read before this heartbeat's updates. The scan over
// the node's jobs runs only when a cheap divergence signal fires — a
// suspicious report, the report's job count disagreeing with the
// record's allocated-device count, or the telemetry flipping an
// allocated device to free — so steady-state heartbeats stay O(1) in
// the job table.
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

// commit writes the node record. Steady state at fleet scale changes
// nothing but LastHeartbeat: that advance parks in the coalescing
// buffer — a tick at HeartbeatInterval/4 commits the whole batch as one
// compact MutBeat record per shard — instead of pushing a full node
// after-image through the WAL for every beat. Every other beat takes
// one UpdateNode that also refreshes device allocation truth from the
// agent, except on a device whose running job is inside the placement
// grace: the job may simply postdate the report, and the store must
// never show a running job on a free device. A node swept or departed
// since loadNode stays out of service, and the beat asks to re-register.
func (c *Coordinator) commit(b *beat) bool {
	if c.isNoopBeat(b) {
		c.enqueueBeat(b.req.MachineID, b.now)
		return false
	}
	// The update closure crosses the Store interface, so whatever it
	// captures is heap-allocated: it captures copies, and the beat itself
	// stays on heartbeatAt's stack.
	now, status, telemetry, protected := b.now, b.newStatus, b.req.Telemetry, b.protected
	left := false
	err := c.db.UpdateNode(b.req.MachineID, func(n *db.NodeRecord) {
		if left = n.Status == db.NodeDeparted || n.Status == db.NodeUnreachable; left {
			return
		}
		n.LastHeartbeat = now
		n.Status = status
		for i := range n.GPUs {
			for _, tel := range telemetry {
				if n.GPUs[i].DeviceID == tel.DeviceID && !protected[tel.DeviceID] {
					n.GPUs[i].Allocated = tel.Allocated
				}
			}
		}
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
				db.Sample{Time: b.now, NodeID: b.req.MachineID,
					Metric: "gpu_utilization", Value: tel.Utilization},
				db.Sample{Time: b.now, NodeID: b.req.MachineID,
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
