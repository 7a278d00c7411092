package core

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/obs"
)

// Job lifecycle as users and agents drive it: submit, status, kill, and
// the agents' terminal reports. Placement is schedule.go; displacement
// is relocate.go.

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
	if req.GPUMemMiB <= 0 {
		// Every job runs on a whole GPU, placed by the memory it needs.
		return "", fmt.Errorf("core: gpu_mem_mib must be positive, got %d", req.GPUMemMiB)
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
		SubmittedAt: now,
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
	c.trace.RecordAt(now, obs.KindJobSubmitted, jobID, "", nil)
	c.trySchedule()
	return jobID, nil
}

// JobStatus reports one job.
func (c *Coordinator) JobStatus(jobID string) (api.JobStatus, error) {
	rec, err := c.db.GetJob(jobID)
	if err != nil {
		return api.JobStatus{}, fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
	}
	return jobStatusOf(rec), nil
}

// Jobs lists all jobs' statuses, newest first.
func (c *Coordinator) Jobs() []api.JobStatus {
	recs := c.db.ListJobs()
	out := make([]api.JobStatus, 0, len(recs))
	for i := len(recs) - 1; i >= 0; i-- {
		out = append(out, jobStatusOf(recs[i]))
	}
	return out
}

func jobStatusOf(rec db.JobRecord) api.JobStatus {
	return api.JobStatus{
		JobID: rec.ID, State: rec.State, NodeID: rec.NodeID, DeviceID: rec.DeviceID,
		Migrations: rec.Migrations, Submitted: rec.SubmittedAt,
		Started: rec.StartedAt, Finished: rec.FinishedAt,
	}
}

// KillJob terminates a job wherever it runs; an ended job stays as it
// ended, and a job placed under the kill is read again and killed.
func (c *Coordinator) KillJob(jobID string) error {
	if err := c.fence(0); err != nil {
		return err
	}
	for {
		rec, err := c.db.GetJob(jobID)
		if err != nil {
			return fmt.Errorf("%w: %s", ErrUnknownJob, jobID)
		}
		if ended(rec.State) {
			return nil
		}
		if h := c.handle(rec.NodeID); h != nil && rec.State == db.JobRunning {
			_ = h.Kill(api.KillRequest{Envelope: c.envelope(), JobID: jobID}) // node may be gone; the kill stands
		}
		if now := c.clock.Now(); c.settle(rec, db.JobKilled, now) {
			c.trace.RecordAt(now, obs.KindJobKilled, jobID, "", nil)
			c.trySchedule()
			return nil
		}
	}
}

// JobUpdate receives an agent's job report, fenced and authenticated
// like a departure notice. A report from a node the job is no longer
// placed on is dropped, and so is a duplicate of one already applied;
// both are answered, so the agent stops re-sending. After a partition
// the old host may still run a copy since migrated elsewhere (heartbeat
// reconciliation kills it), and its stale completion must not resolve
// the new placement.
func (c *Coordinator) JobUpdate(req api.JobUpdateRequest) error {
	if err := c.admitAgent(req.LeaderEpoch, req.Token, req.MachineID); err != nil {
		return err
	}
	machineID, jobID, state := req.MachineID, req.JobID, req.State
	if state != db.JobCompleted && state != db.JobFailed {
		return nil
	}
	now := c.clock.Now()
	// settle compares again under the record lock: a report from the old
	// host racing a requeue loses, and a duplicate writes nothing.
	cur, err := c.db.GetJob(jobID)
	if err != nil || cur.NodeID != machineID || !c.settle(cur, state, now) {
		return nil
	}
	kind := obs.KindJobCompleted
	if state == db.JobFailed {
		kind = obs.KindJobFailed
	}
	c.trace.RecordAt(now, kind, jobID, machineID, map[string]string{"step": strconv.FormatInt(req.Step, 10)})
	c.trySchedule()
	return nil
}

// ended reports whether a job in state s has finished for good.
func ended(s db.JobState) bool {
	return s == db.JobCompleted || s == db.JobFailed || s == db.JobKilled
}

// settle is the one way off a device or out of the queue: a
// compare-and-set that moves job, as its caller read it, to state to.
// It writes nothing and returns false if job had ended or the record no
// longer reads as job does (same). A job leaving a running placement
// has its episode closed, scoped to that placement, while the record
// still points at it: a job flipped first could be re-placed and its
// new episode closed. The device frees with the record write itself
// (the store derives occupancy from running jobs). to pending clears
// the placement, and an ending to stamps FinishedAt.
func (c *Coordinator) settle(job db.JobRecord, to db.JobState, now time.Time) bool {
	if ended(job.State) || !c.unchanged(job) {
		return false
	}
	if job.State == db.JobRunning {
		_ = c.db.CloseAllocationEpisode(job.ID, job.NodeID, job.DeviceID, now)
	}
	settled := false
	_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) {
		if settled = same(j, &job); !settled {
			return
		}
		j.State = to
		if to == db.JobPending {
			j.NodeID, j.DeviceID = "", ""
		} else if ended(to) {
			j.FinishedAt = now
		}
	})
	return settled
}

// same reports whether record j still reads as job did: the same state,
// node, device and placement time.
func same(j, job *db.JobRecord) bool {
	return j.State == job.State && j.NodeID == job.NodeID && j.DeviceID == job.DeviceID && j.PlacedAt.Equal(job.PlacedAt)
}

// unchanged reads job's record and reports whether it is still the same.
func (c *Coordinator) unchanged(job db.JobRecord) bool {
	cur, err := c.db.GetJob(job.ID)
	return err == nil && same(&cur, &job)
}
