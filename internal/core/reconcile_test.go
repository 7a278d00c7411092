package core

import (
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/workload"
)

// TestHeartbeatKillsOrphanCopy: a node that kept executing a job
// through a control-plane outage, while the platform migrated that job
// elsewhere, must have its stale copy killed by the next heartbeat's
// reconciliation — one job must never run twice.
func TestHeartbeatKillsOrphanCopy(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, err := r.coord.db.GetJob(jobID)
	if err != nil || rec.State != db.JobRunning || rec.NodeID != "n1" {
		t.Fatalf("job = %+v, %v (want running on n1)", rec, err)
	}

	// Simulate the platform's view moving on without the agent hearing
	// about it: the coordinator requeues and re-places the job on n2,
	// as sweep would for an unreachable n1. The copy on n1 lives on.
	_ = r.coord.db.CloseAllocation(jobID, r.clock.Now())
	_ = r.coord.db.UpdateJob(jobID, func(j *db.JobRecord) {
		j.State = db.JobPending
		j.NodeID, j.DeviceID = "", ""
	})
	r.coord.markDevice("n1", rec.DeviceID, false)
	r.coord.trySchedule()
	moved, _ := r.coord.db.GetJob(jobID)
	if moved.State != db.JobRunning || moved.NodeID != "n2" {
		t.Fatalf("job after re-placement = %+v (want running on n2)", moved)
	}
	if len(ag1.Status().RunningJobs) != 1 {
		t.Fatal("n1 should still hold the orphan copy")
	}

	// Once the new placement has outlived the report-skew grace, the
	// next heartbeat reporting the orphan gets it killed.
	r.clock.Advance(2 * time.Minute)
	if _, err := r.coord.Heartbeat(ag1.HeartbeatRequest()); err != nil {
		t.Fatal(err)
	}
	if n := len(ag1.Status().RunningJobs); n != 0 {
		t.Fatalf("orphan survived reconciliation: %d jobs on n1", n)
	}
	// The migrated placement is untouched.
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning || after.NodeID != "n2" {
		t.Fatalf("reconciliation disturbed the live placement: %+v", after)
	}
}

// TestHeartbeatRequeuesLostPlacement: a node that loses power and
// returns inside the missed-heartbeat window (so the sweep never
// fires) lost its workloads. Its next heartbeat — empty running-job
// report, devices free — must requeue the placements the platform
// still believes are running there.
func TestHeartbeatRequeuesLostPlacement(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.State != db.JobRunning || rec.NodeID != "n1" {
		t.Fatalf("job = %+v (want running on n1)", rec)
	}

	// Power blip: everything on n1 dies, silently. Advance past the
	// placement grace but stay inside the missed threshold.
	r.clock.Advance(2 * time.Minute)
	ag1.KillSwitch()

	if _, err := r.coord.Heartbeat(ag1.HeartbeatRequest()); err != nil {
		t.Fatal(err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.NodeID == "n1" {
		t.Fatalf("lost placement not recovered: %+v", after)
	}
	// The requeue frees n1's device and the scheduling pass re-places
	// the job (n2 is free), so it must be running again somewhere.
	if after.State != db.JobRunning && after.State != db.JobPending {
		t.Fatalf("job in state %s after reconciliation", after.State)
	}
}

// TestHeartbeatProtectsFreshPlacement: a job placed moments ago must
// NOT be requeued just because the agent's in-flight report predates
// it — and its device flag must survive the stale telemetry.
func TestHeartbeatProtectsFreshPlacement(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)

	// Build the report BEFORE the job exists: the stale-report race.
	stale := ag1.HeartbeatRequest()

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.State != db.JobRunning {
		t.Fatalf("job = %+v", rec)
	}
	if _, err := r.coord.Heartbeat(stale); err != nil {
		t.Fatal(err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning || after.NodeID != "n1" {
		t.Fatalf("fresh placement requeued by stale report: %+v", after)
	}
	node, _ := r.coord.db.GetNode("n1")
	if !node.GPUs[0].Allocated {
		t.Fatal("stale report freed the fresh placement's device")
	}
}

// TestJobUpdateFromStaleNodeIgnored: a terminal report from a node the
// job no longer runs on must not flip the record or free the new
// host's device — and it is answered, so the sender stops re-sending.
func TestJobUpdateFromStaleNodeIgnored(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)
	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.NodeID != "n1" {
		t.Fatalf("job on %s", rec.NodeID)
	}
	other := r.addNode("n2", gpu.RTX3090)

	if err := r.coord.JobUpdate(jobReport(other, jobID, db.JobCompleted)); err != nil {
		t.Fatalf("stale report not answered: %v", err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning {
		t.Fatalf("stale completion flipped job to %s", after.State)
	}
	// The genuine host's report still lands.
	if err := r.coord.JobUpdate(jobReport(r.ags["n1"], jobID, db.JobCompleted)); err != nil {
		t.Fatal(err)
	}
	after, _ = r.coord.db.GetJob(jobID)
	if after.State != db.JobCompleted {
		t.Fatalf("genuine completion dropped: %s", after.State)
	}
}

// TestStoppedCoordinatorIsFenced: deferred work (sweeps, scheduling,
// migration finishes) fired after Stop must not touch agents or the
// database — the zombie-coordinator fence the chaos kill/restart
// scenario depends on.
func TestStoppedCoordinatorIsFenced(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)

	// A pending job that would schedule instantly if the fence leaked.
	spec := workload.SmallCNN
	huge := spec
	huge.GPUMemMiB = 1 << 30 // unplaceable now
	pendID, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: huge.GPUMemMiB, Training: &huge,
	})
	if err != nil {
		t.Fatal(err)
	}

	r.coord.Stop()
	_ = r.coord.db.UpdateJob(pendID, func(j *db.JobRecord) { j.GPUMemMiB = spec.GPUMemMiB })
	r.coord.trySchedule()
	r.coord.sweep()
	if rec, _ := r.coord.db.GetJob(pendID); rec.State != db.JobPending {
		t.Fatalf("stopped coordinator still scheduled: %s", rec.State)
	}
}
