package core

import (
	"errors"
	"fmt"
	"strconv"

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
		c.markDevice(rec.NodeID, rec.DeviceID, false)
		_ = c.db.CloseAllocation(jobID, now)
	}
	err = c.db.UpdateJob(jobID, func(j *db.JobRecord) {
		j.State = db.JobKilled
		j.FinishedAt = now
	})
	c.trace.RecordAt(now, obs.KindJobKilled, jobID, "", nil)
	c.trySchedule()
	return err
}

// JobUpdate receives an agent's job report, fenced and authenticated
// like a departure notice. Reports from a node the job is no longer
// placed on are dropped, and so are duplicates of a report already
// applied; both are answered, so the agent stops re-sending them. After
// a partition the old host may still be running a copy the platform
// has since migrated elsewhere, and letting its stale completion close
// the new placement's allocation would corrupt the resource view
// (heartbeat reconciliation kills such orphans).
func (c *Coordinator) JobUpdate(req api.JobUpdateRequest) error {
	if err := c.admitAgent(req.LeaderEpoch, req.Token, req.MachineID); err != nil {
		return err
	}
	machineID, jobID, state := req.MachineID, req.JobID, req.State
	if state != db.JobCompleted && state != db.JobFailed {
		return nil
	}
	now := c.clock.Now()
	// Idempotency pre-check, outside the record lock: a duplicate
	// delivery of a terminal report (the job already resolved, or the
	// record no longer points at the sender) must be a true no-op — not
	// even a no-change UpdateJob, which would still advance the mutation
	// sequence and re-stamp FinishedAt. A duplicate racing the original
	// on the concurrent HTTP path can still slip past this read and reach
	// UpdateJob; the in-lock guards below keep the record correct there,
	// at the cost of one no-change mutation record.
	if cur, err := c.db.GetJob(jobID); err != nil || cur.NodeID != machineID ||
		cur.State == db.JobCompleted || cur.State == db.JobFailed || cur.State == db.JobKilled {
		return nil
	}
	// The stale-node check also runs inside the record lock: on the
	// concurrent HTTP path the job may be requeued and re-placed between
	// the snapshot read above and this update, and a report from the old
	// host must lose that race, not resolve the new copy.
	var deviceID string
	applied := false
	err := c.db.UpdateJob(jobID, func(j *db.JobRecord) {
		if j.NodeID != machineID ||
			j.State == db.JobCompleted || j.State == db.JobFailed || j.State == db.JobKilled {
			return
		}
		deviceID = j.DeviceID
		j.State = state
		j.FinishedAt = now
		applied = true
	})
	if err != nil || !applied {
		return nil
	}
	_ = c.db.CloseAllocation(jobID, now)
	c.markDevice(machineID, deviceID, false)
	kind := obs.KindJobCompleted
	if state == db.JobFailed {
		kind = obs.KindJobFailed
	}
	c.trace.RecordAt(now, kind, jobID, machineID, map[string]string{"step": strconv.FormatInt(req.Step, 10)})
	c.trySchedule()
	return nil
}
