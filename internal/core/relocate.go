package core

import (
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/migration"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
)

// Relocation: the execution side of resilient migration (§3.5). Jobs
// whose host is gone relaunch from their last durable checkpoint
// (migrateJobsFrom); jobs whose host still answers are checkpointed
// there first and lose no work (relocateLive: predictive drains and
// migrate-back). Both plan all of an event's jobs as one batch and meet
// in executePlan.

// migrateJobsFrom relaunches every job running on nodeID. All of them
// are planned as one batch, so their restore transfers overlap on the
// LAN model. A job already migrating off the node keeps the plan it has.
func (c *Coordinator) migrateJobsFrom(nodeID string, reason migration.Reason) {
	now := c.clock.Now()
	var planned []db.JobRecord
	for _, job := range c.db.JobsOnNode(nodeID) {
		if job.State != db.JobRunning || !c.settle(job, db.JobMigrating, now) {
			continue
		}
		job.State = db.JobMigrating
		planned = append(planned, job)
		c.mig.RecordAttempt(reason)
	}
	for i, item := range c.mig.PlanBatch(planned, reason, now) {
		if item.Err != nil {
			// No target now: requeue; a later trySchedule will pick the
			// job up when capacity returns. Counted as a failure for the
			// immediate-migration statistic.
			c.mig.RecordFailure(reason)
			c.requeueFromCheckpoint(planned[i], now)
			continue
		}
		c.executePlan(item.Plan, reason)
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
func (c *Coordinator) relocateLive(jobs []db.JobRecord, reason migration.Reason, now time.Time) {
	type source struct {
		host AgentHandle
		seq  int
		step int64
	}
	back := reason == migration.ReasonMigrateBack
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
		c.mig.RecordAttempt(reason)
		moving, from = append(moving, job), append(from, src)
	}
	for i, item := range c.mig.PlanBatch(moving, reason, now) {
		job, plan := moving[i], item.Plan
		if item.Err != nil || (back && plan.Placement.NodeID != job.PreferredNode) {
			c.mig.RecordFailure(reason)
			continue
		}
		if err := from[i].host.Kill(api.KillRequest{Envelope: c.envelope(), JobID: job.ID}); err != nil ||
			!c.settle(job, db.JobMigrating, now) {
			c.mig.RecordFailure(reason)
			continue
		}
		plan.RestoreSeq, plan.RestoreStep = from[i].seq, from[i].step
		if reason == migration.ReasonPredictive {
			c.trace.Record(obs.KindPredictiveMigrate, job.ID, job.NodeID, map[string]string{
				"to":           plan.Placement.NodeID,
				"restore_step": strconv.FormatInt(plan.RestoreStep, 10),
			})
		}
		c.executePlan(plan, reason)
	}
}

// executePlan launches the displaced job on its planned target. The
// relaunch happens only after the checkpoint data has crossed the LAN
// (plan.TransferTime) — migration downtime is real time, not metadata.
func (c *Coordinator) executePlan(plan migration.Plan, reason migration.Reason) {
	if plan.TransferTime > 0 {
		c.clock.AfterFunc(plan.TransferTime, func() {
			c.finishMigration(plan, reason)
		})
		return
	}
	c.finishMigration(plan, reason)
}

// finishMigration performs the relaunch once restore data is in place.
func (c *Coordinator) finishMigration(plan migration.Plan, reason migration.Reason) {
	if !c.Leading() {
		// The transfer timer outlived the coordinator (kill/restart) or
		// its leadership (deposed mid-transfer): the successor's
		// recoverState requeues this job.
		return
	}
	now := c.clock.Now()
	// The job may have been killed (or otherwise resolved) while its
	// checkpoint was in flight.
	cur, err := c.db.GetJob(plan.JobID)
	if err != nil || cur.State != db.JobMigrating {
		return
	}
	// The target may have degraded below the unhealthy threshold while
	// the checkpoint was in transit. Landing there would be a fresh
	// placement on a node the scheduler now excludes — requeue instead
	// and let the next batch pick a healthy target. A launch that fails
	// requeues too; one that finds the job resolved requeues nothing.
	if tgt, err := c.db.GetNode(plan.Placement.NodeID); err != nil ||
		tgt.HealthScore() < monitor.UnhealthyBelow ||
		!c.place(cur, plan.Placement, plan.RestoreSeq, plan.RestoreStep, now) {
		c.mig.RecordFailure(reason)
		c.requeueFromCheckpoint(cur, now)
		return
	}
	_ = c.db.UpdateJob(cur.ID, func(j *db.JobRecord) { j.Migrations++ })
	c.mig.RecordSuccess(reason, plan.TransferTime)
	kind := obs.KindJobMigrated
	if reason == migration.ReasonMigrateBack {
		kind = obs.KindJobMigratedBack
	}
	c.trace.RecordAt(now, kind, cur.ID, plan.Placement.NodeID, map[string]string{
		"from": plan.From, "restore_step": strconv.FormatInt(plan.RestoreStep, 10),
		"transfer_bytes": strconv.FormatInt(plan.TransferBytes, 10), "reason": string(reason),
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
