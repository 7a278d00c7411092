package core

import (
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
)

// Relocation: resilient execution (§3.5). Jobs whose host is gone
// relaunch from their last durable checkpoint (migrateJobsFrom); jobs
// whose host still answers are checkpointed there first and lose no
// work (relocateLive: predictive drains and migrate-back). Both plan
// all of an event's jobs as one batch (planBatch) and relaunch each
// planned job at once (relaunch). The coordinator names no restore
// point: the target's agent resumes from the newest verifiable chain it
// resolves itself and answers the step.

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

// planBatch plans the moves of all jobs displaced by one event with
// one scheduler cycle over the store's current nodes, so two jobs never
// land on the same free device — the cycle's reservations see to that.
// A job's current node (which may still be in the store) is excluded
// via AvoidNodes, except on migrate-back, where the original node is
// preferred instead. It returns one result per job, in order.
func (c *Coordinator) planBatch(jobs []db.JobRecord, reason migrationReason, now time.Time) []scheduler.BatchResult {
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
	return c.sched.Place(reqs, c.db, now)
}

// migrateJobsFrom relaunches every job running on nodeID, all of them
// planned as one batch.
func (c *Coordinator) migrateJobsFrom(nodeID string, reason migrationReason) {
	now := c.clock.Now()
	jobs := c.db.JobsOnNode(nodeID)
	for i, res := range c.planBatch(jobs, reason, now) {
		c.relaunch(jobs[i], res, reason, now)
	}
}

// relocateLive moves running jobs off hosts that still answer: the
// predictive drain of an unhealthy node, and the migration back to a
// returned home node. Each job is checkpointed at its source, all of
// them are planned as one batch — so two of them can never be sent to
// the same free device — and each planned job is then killed at the
// source and relaunched. Where the target's agent reads the store the
// source wrote, it resumes from the checkpoint just taken.
//
// The two reasons differ only in how much the move is worth. A drain
// must happen: when the source cannot checkpoint (the gray failure
// biting) the job restarts from its last durable generation, and any
// target will do. Migrate-back is optional: a job whose checkpoint
// fails, or whose plan lands anywhere but home, stays where it is.
// Either way a job without a target keeps running at its source — a
// degraded node beats no node.
func (c *Coordinator) relocateLive(jobs []db.JobRecord, reason migrationReason, now time.Time) {
	back := reason == reasonMigrateBack
	moving := make([]db.JobRecord, 0, len(jobs))
	hosts := make([]AgentHandle, 0, len(jobs))
	for _, job := range jobs {
		host := c.handle(job.NodeID)
		if host == nil {
			continue
		}
		if _, err := host.Checkpoint(api.CheckpointRequest{Envelope: c.envelope(), JobID: job.ID, Incremental: true}); err != nil && back {
			continue
		}
		moving, hosts = append(moving, job), append(hosts, host)
	}
	for i, res := range c.planBatch(moving, reason, now) {
		job := moving[i]
		if res.Err != nil || (back && res.Placement.NodeID != job.PreferredNode) {
			continue
		}
		if err := hosts[i].Kill(api.KillRequest{Envelope: c.envelope(), JobID: job.ID}); err != nil {
			continue
		}
		c.relaunch(job, res, reason, now)
	}
}

// relaunch moves a displaced job, still running on its source as the
// caller read it, to its planned target. A job with no target, or whose
// launch fails, goes back to the pending queue; one resolved meanwhile
// (a kill won) stays resolved.
func (c *Coordinator) relaunch(job db.JobRecord, res scheduler.BatchResult, reason migrationReason, now time.Time) {
	ok := res.Err == nil
	var resp api.LaunchResponse
	if ok {
		resp, ok = c.place(job, res.Placement, now)
	}
	if !ok {
		// No target now, or the launch failed: a later trySchedule
		// places the job when capacity returns.
		c.requeueFromCheckpoint(job, now)
		return
	}
	restoreStep := strconv.FormatInt(resp.RestoreStep, 10)
	if reason == reasonPredictive {
		c.trace.RecordAt(now, obs.KindPredictiveMigrate, job.ID, job.NodeID, map[string]string{
			"to": res.Placement.NodeID, "restore_step": restoreStep,
		})
	}
	kind := obs.KindJobMigrated
	if reason == reasonMigrateBack {
		kind = obs.KindJobMigratedBack
	}
	c.trace.RecordAt(now, kind, job.ID, res.Placement.NodeID, map[string]string{
		"from": job.NodeID, "restore_step": restoreStep, "reason": string(reason),
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
