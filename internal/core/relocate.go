package core

import (
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/monitor"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
)

// Relocation: resilient execution (§3.5). Jobs whose host is gone
// relaunch from their last durable checkpoint (migrateJobsFrom); jobs
// whose host still answers are checkpointed there first and lose no
// work (relocateLive: predictive drains and migrate-back). Both plan
// all of an event's jobs as one batch (planBatch) and meet in
// executePlan.

// migrationReason says why a job moves: the paper's three interruption
// scenarios, the migrate-back path and the predictive drain. Its value
// is the reason detail of the job.migrated event.
type migrationReason string

const (
	reasonScheduled   migrationReason = "scheduled" // graceful provider shutdown
	reasonEmergency   migrationReason = "emergency" // heartbeat loss
	reasonTemporary   migrationReason = "temporary" // provider pause with return intent
	reasonMigrateBack migrationReason = "migrate-back"
	// reasonPredictive is a checkpoint-then-migrate drain off a node
	// whose health score crossed the unhealthy threshold: the node is
	// still alive, so the job checkpoints in place before moving — no
	// work is lost, unlike the emergency path.
	reasonPredictive migrationReason = "predictive"
)

// migrationPlan is one job's move, ready for executePlan, or the reason
// it cannot move now (err: no target).
type migrationPlan struct {
	jobID string
	// from is the node the job is leaving (may be gone already).
	from      string
	placement scheduler.Placement
	// restoreSeq / restoreStep locate the resume point; zero for a
	// stateless restart.
	restoreSeq  int
	restoreStep int64
	// transferBytes is the restore-chain payload that must move to the
	// target; transferTime its modelled LAN duration (zero without a
	// network model).
	transferBytes int64
	transferTime  time.Duration
	reason        migrationReason
	err           error
}

// planBatch plans migrations for all jobs displaced by one event with
// one scheduler cycle over the store's current nodes, so (i) two jobs
// never land on the same free device — the cycle's reservations see to
// that — and (ii) the restore transfers overlap on the network model
// (Config.Net): concurrent migrations contend for link bandwidth, the
// effect that produces the heavy tail in migration downtime. A job's
// current node (which may still be in the store) is excluded via
// AvoidNodes, except on migrate-back, where the original node is
// preferred instead.
func (c *Coordinator) planBatch(jobs []db.JobRecord, reason migrationReason, now time.Time) []migrationPlan {
	reqs := make([]scheduler.Request, len(jobs))
	for i, job := range jobs {
		reqs[i] = scheduler.Request{
			JobID:       job.ID,
			GPUMemMiB:   job.GPUMemMiB,
			Capability:  gpu.ComputeCapability{Major: job.CapabilityMajor, Minor: job.CapabilityMinor},
			Priority:    job.Priority,
			LongRunning: true,
		}
		if reason == reasonMigrateBack {
			reqs[i].PreferNode = job.PreferredNode
		} else {
			reqs[i].AvoidNodes = []string{job.NodeID}
		}
	}
	results := c.sched.Place(reqs, c.db, now)

	out := make([]migrationPlan, len(jobs))
	net, storage := c.cfg.Net, c.cfg.StorageNode
	var flows []*netsim.Flow
	flowIdx := make([]int, 0, len(jobs))
	for i, job := range jobs {
		p := &out[i]
		*p = migrationPlan{jobID: job.ID, from: job.NodeID, reason: reason, err: results[i].Err}
		if p.err != nil {
			continue
		}
		p.placement = results[i].Placement
		c.fillRestorePoint(p)
		if net != nil && p.transferBytes > 0 && storage != "" {
			f, ferr := net.StartFlow(storage, p.placement.NodeID, p.transferBytes, netsim.TrafficMigration, now)
			if ferr == nil {
				flows = append(flows, f)
				flowIdx = append(flowIdx, i)
			}
		}
	}

	// All flows of the event overlap: durations reflect shared links.
	for k, f := range flows {
		d := f.Duration()
		out[flowIdx[k]].transferTime = d
		_ = net.FinishFlow(f, now.Add(d))
	}
	return out
}

// fillRestorePoint resolves the job's restore chain once and derives
// both the resume point (the chain head) and the transfer size (the
// chain's byte total) from it — one verification walk, not the two that
// a Latest call and a second chain walk would cost. No restorable chain
// means a stateless restart.
func (c *Coordinator) fillRestorePoint(p *migrationPlan) {
	chain, err := c.ckpts.RestoreChain(p.jobID)
	if err != nil || len(chain) == 0 {
		return
	}
	head := chain[len(chain)-1]
	p.restoreSeq, p.restoreStep = head.Seq, head.Progress.Step
	for _, ck := range chain {
		p.transferBytes += ck.Bytes
	}
}

// migrateJobsFrom relaunches every job running on nodeID. All of them
// are planned as one batch, so their restore transfers overlap on the
// LAN model. A job already migrating off the node keeps the plan it has.
func (c *Coordinator) migrateJobsFrom(nodeID string, reason migrationReason) {
	now := c.clock.Now()
	var planned []db.JobRecord
	for _, job := range c.db.JobsOnNode(nodeID) {
		if job.State != db.JobRunning || !c.settle(job, db.JobMigrating, now) {
			continue
		}
		job.State = db.JobMigrating
		planned = append(planned, job)
	}
	for i, plan := range c.planBatch(planned, reason, now) {
		if plan.err != nil {
			// No target now: requeue; a later trySchedule will pick the
			// job up when capacity returns.
			c.requeueFromCheckpoint(planned[i], now)
			continue
		}
		c.executePlan(plan)
	}
}

// relocateLive moves running jobs off hosts that still answer: the
// predictive drain of an unhealthy node, and the migration back to a
// returned home node. Each job is checkpointed at its source, all of
// them are planned as one batch — so two of them can never be sent to
// the same free device, whatever the transfer time — and each planned
// job is then killed at the source, settled as migrating and handed
// to executePlan with the fresh restore point.
//
// The two reasons differ only in how much the move is worth. A drain
// must happen: when the source cannot checkpoint (the gray failure
// biting) the job restarts from its last durable generation, and any
// target will do. Migrate-back is optional: a job whose checkpoint
// fails, or whose plan lands anywhere but home, stays where it is.
// Either way a job without a target keeps running at its source — a
// degraded node beats no node.
func (c *Coordinator) relocateLive(jobs []db.JobRecord, reason migrationReason, now time.Time) {
	type source struct {
		host AgentHandle
		seq  int
		step int64
	}
	back := reason == reasonMigrateBack
	moving := make([]db.JobRecord, 0, len(jobs))
	from := make([]source, 0, len(jobs))
	for _, job := range jobs {
		src := source{host: c.handle(job.NodeID)}
		if src.host == nil {
			continue
		}
		if ck, err := src.host.Checkpoint(api.CheckpointRequest{Envelope: c.envelope(), JobID: job.ID, Incremental: true}); err == nil {
			src.seq, src.step = ck.Seq, ck.Step
		} else if back {
			continue
		} else if latest, lerr := c.ckpts.Latest(job.ID); lerr == nil {
			src.seq, src.step = latest.Seq, latest.Progress.Step
		}
		moving, from = append(moving, job), append(from, src)
	}
	for i, plan := range c.planBatch(moving, reason, now) {
		job := moving[i]
		if plan.err != nil || (back && plan.placement.NodeID != job.PreferredNode) {
			continue
		}
		if err := from[i].host.Kill(api.KillRequest{Envelope: c.envelope(), JobID: job.ID}); err != nil ||
			!c.settle(job, db.JobMigrating, now) {
			continue
		}
		plan.restoreSeq, plan.restoreStep = from[i].seq, from[i].step
		if reason == reasonPredictive {
			c.trace.Record(obs.KindPredictiveMigrate, job.ID, job.NodeID, map[string]string{
				"to":           plan.placement.NodeID,
				"restore_step": strconv.FormatInt(plan.restoreStep, 10),
			})
		}
		c.executePlan(plan)
	}
}

// executePlan launches the displaced job on its planned target. The
// relaunch happens only after the checkpoint data has crossed the LAN
// (plan.transferTime) — migration downtime is real time, not metadata.
func (c *Coordinator) executePlan(plan migrationPlan) {
	if plan.transferTime > 0 {
		c.clock.AfterFunc(plan.transferTime, func() { c.finishMigration(plan) })
		return
	}
	c.finishMigration(plan)
}

// finishMigration performs the relaunch once restore data is in place.
func (c *Coordinator) finishMigration(plan migrationPlan) {
	if !c.Leading() {
		// The transfer timer outlived the coordinator (kill/restart) or
		// its leadership (deposed mid-transfer): the successor's
		// recoverState requeues this job.
		return
	}
	now := c.clock.Now()
	// The job may have been killed (or otherwise resolved) while its
	// checkpoint was in flight.
	cur, err := c.db.GetJob(plan.jobID)
	if err != nil || cur.State != db.JobMigrating {
		return
	}
	// The target may have degraded below the unhealthy threshold while
	// the checkpoint was in transit. Landing there would be a fresh
	// placement on a node the scheduler now excludes — requeue instead
	// and let the next batch pick a healthy target. A launch that fails
	// requeues too; one that finds the job resolved requeues nothing.
	if tgt, err := c.db.GetNode(plan.placement.NodeID); err != nil ||
		tgt.HealthScore() < monitor.UnhealthyBelow ||
		!c.place(cur, plan.placement, plan.restoreSeq, plan.restoreStep, now) {
		c.requeueFromCheckpoint(cur, now)
		return
	}
	_ = c.db.UpdateJob(cur.ID, func(j *db.JobRecord) { j.Migrations++ })
	kind := obs.KindJobMigrated
	if plan.reason == reasonMigrateBack {
		kind = obs.KindJobMigratedBack
	}
	c.trace.RecordAt(now, kind, cur.ID, plan.placement.NodeID, map[string]string{
		"from": plan.from, "restore_step": strconv.FormatInt(plan.restoreStep, 10),
		"transfer_bytes": strconv.FormatInt(plan.transferBytes, 10), "reason": string(plan.reason),
	})
}

// requeueFromCheckpoint returns a displaced job, as its caller read it,
// to the pending queue; it keeps its checkpoint state, so the next
// placement resumes correctly.
func (c *Coordinator) requeueFromCheckpoint(job db.JobRecord, now time.Time) {
	if c.settle(job, db.JobPending, now) {
		c.trace.RecordAt(now, obs.KindJobRequeued, job.ID, "", nil)
	}
}
