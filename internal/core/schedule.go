package core

import (
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
)

// Placement: the pending queue drained batch by batch, and the launch +
// commit of one decision. trySchedule is called inline from every path
// that may have made something placeable; at most one pass runs at a
// time.

// DefaultBatchSize is how many pending requests one scheduling cycle
// drains when Config.BatchSize is unset.
const DefaultBatchSize = 32

// trySchedule asks for a placement pass. With none running the caller
// runs one itself, so a single-threaded driver (every simulation) sees
// the queue drained before trySchedule returns. A caller that finds a
// pass running records the request and returns without waiting: two
// passes reading the same queue place the same job on two nodes, and
// the launch RPCs of somebody else's pass are not this caller's to wait
// for. A request recorded during a pass is served by a pass that
// starts after it, so what the caller just made placeable is seen.
func (c *Coordinator) trySchedule() {
	c.mu.Lock()
	if c.passRunning {
		c.passWanted = true
		c.mu.Unlock()
		return
	}
	c.passRunning = true
	c.mu.Unlock()
	c.runPass()
}

// runPass drains the pending queue in priority order, placing jobs
// batch by batch: each cycle takes up to BatchSize requests, runs one
// PlaceBatch over a candidate set built once, and commits the
// placements. Cycles repeat while they make progress, so a deep queue
// still drains fully; a cycle that commits nothing stops the loop (the
// cluster is effectively full for this queue shape). The caller has set
// passRunning. If a request arrived meanwhile the follow-up pass goes to
// a goroutine, not to this caller: under a steady stream of requests a
// loop here would keep one beat's ack waiting for everybody's
// placements. Stop waits for that goroutine.
func (c *Coordinator) runPass() {
	for c.scheduleBatch() {
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.passRunning = c.passWanted && !c.stopped
	c.passWanted = false
	if c.passRunning {
		c.passes.Add(1)
		go func() {
			defer c.passes.Done()
			c.runPass()
		}()
	}
}

// scheduleBatch runs one batch-scheduling cycle and reports whether any
// placement was committed. Placements are transactional per member: the
// database is only mutated after the agent's Launch succeeds, so a
// failing member leaves no stranded device reservation — its in-batch
// reservation dies with the batch and the job simply stays pending.
func (c *Coordinator) scheduleBatch() bool {
	if !c.Leading() {
		return false
	}
	if c.db.CountJobsInState(db.JobPending) == 0 {
		return false
	}
	now := c.clock.Now()

	// Assemble the batch: the head of the priority queue. Relaunch
	// metadata lives in the record itself, so jobs restored from a
	// snapshot + WAL are as schedulable as freshly submitted ones.
	var (
		jobs []db.JobRecord
		reqs []scheduler.Request
	)
	for _, job := range c.db.JobsInState(db.JobPending) {
		if len(reqs) >= c.cfg.BatchSize {
			break
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
		if _, ok := c.place(jobs[i], res.Placement, now); ok {
			progressed = true
		}
	}
	return progressed
}

// place is the one way onto a device: it launches the job — the agent
// resumes it from the newest checkpoint it can restore — and commits
// the placement with a compare-and-set against the record as the
// caller read it (settle's test). A job read pending is placed; one
// read running is moved off its source, which the same write counts as
// a migration, after the source's episode closed (settle). A failed
// launch writes nothing; a job resolved or moved while the launch was
// in flight stays as it is, and the copy just started is killed. The
// launch is marked in flight meanwhile (classify). It returns the
// agent's answer and whether the placement committed.
func (c *Coordinator) place(job db.JobRecord, p scheduler.Placement, now time.Time) (api.LaunchResponse, bool) {
	h := c.handle(p.NodeID)
	if h == nil {
		return api.LaunchResponse{}, false
	}
	c.mu.Lock()
	c.launching[job.ID] = p.NodeID
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.launching, job.ID)
		c.mu.Unlock()
	}()
	resp, err := h.Launch(api.LaunchRequest{
		Envelope: c.envelope(),
		JobID:    job.ID, ImageName: job.ImageName, Kind: job.Kind,
		Entrypoint: job.Entrypoint, GPUMemMiB: job.GPUMemMiB,
		CapabilityMajor: job.CapabilityMajor, CapabilityMinor: job.CapabilityMinor,
		CheckpointIntervalSec: job.CheckpointIntervalSec, Training: job.Training,
		SessionSeconds: job.SessionSeconds, StoragePrefs: job.StoragePrefs,
	})
	if err != nil {
		// Node said no (paused, race on capacity): reflect reality and
		// leave the job pending.
		return resp, false
	}

	move := job.State == db.JobRunning
	if move && c.unchanged(job) {
		_ = c.db.CloseAllocationEpisode(job.ID, job.NodeID, job.DeviceID, now)
	}
	placed := false
	_ = c.db.UpdateJob(job.ID, func(j *db.JobRecord) {
		if placed = same(j, &job); !placed {
			return
		}
		if move {
			j.Migrations++
		}
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
	if !placed {
		_ = h.Kill(api.KillRequest{Envelope: c.envelope(), JobID: job.ID})
		return resp, false
	}
	c.db.RecordAllocation(db.AllocationRecord{
		JobID: job.ID, NodeID: p.NodeID, DeviceID: resp.DeviceID, Start: now,
	})
	if job.Kind == "interactive" {
		c.mu.Lock()
		c.interactiveCount++
		c.mu.Unlock()
	}
	c.trace.RecordAt(now, obs.KindJobScheduled, job.ID, p.NodeID,
		map[string]string{"device": resp.DeviceID, "reliability": strconv.FormatFloat(p.Reliability, 'g', -1, 64)})
	return resp, true
}
