package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/migration"
	"gpunion/internal/workload"
)

// These tests exercise resilience corners beyond the happy paths in
// coordinator_test.go.

func TestKillDuringMigrationDoesNotResurrect(t *testing.T) {
	// A job displaced by a departure is killed by its user while its
	// checkpoint is (conceptually) in flight; the delayed relaunch must
	// notice and stand down.
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)
	r.clock.Advance(time.Minute)

	// Depart and immediately kill the job before any further clock
	// advance (the migration in this no-netsim rig is synchronous, so
	// exercise the guard directly via the killed state).
	ag1.Depart(api.DepartScheduled, time.Minute)
	if err := r.coord.KillJob(id); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(time.Minute)
	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobKilled {
		t.Fatalf("state = %s, want killed to stick", st.State)
	}
	if len(r.ags["n2"].Status().RunningJobs) != 0 {
		t.Fatal("killed job resurrected on n2")
	}
}

func TestRepeatedDeparturesDegradeReliability(t *testing.T) {
	r := newRig(t, 10*time.Second)
	flaky := r.addNode("n-flaky", gpu.RTX3090)
	r.addNode("n-solid", gpu.RTX3090)

	// The flaky provider churns five times.
	for i := 0; i < 5; i++ {
		flaky.Depart(api.DepartTemporary, 0)
		r.clock.Advance(time.Minute)
		flaky.Return()
		r.clock.Advance(30 * time.Second) // heartbeat brings it back
	}
	nodes := r.coord.Nodes()
	var flakyRec api.NodeSummary
	for _, n := range nodes {
		if n.ID == "n-flaky" {
			flakyRec = n
		}
	}
	if flakyRec.Departures != 5 {
		t.Fatalf("departures = %d, want 5", flakyRec.Departures)
	}

	// A long-running job now prefers the solid node even though the
	// flaky one sorts first alphabetically.
	spec := workload.LargeCNN
	spec.GPUMemMiB = 16000
	id, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.coord.JobStatus(id)
	if st.NodeID != "n-solid" {
		t.Fatalf("long job placed on %s, want the reliable node", st.NodeID)
	}
}

func TestDatabaseSnapshotRoundTripThroughCoordinator(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 0)
	r.clock.Advance(time.Minute)

	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.coord.DB().ExportState()); err != nil {
		t.Fatal(err)
	}
	var st db.State
	if err := json.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	restored := db.New(0)
	restored.ImportState(st)
	job, err := restored.GetJob(id)
	if err != nil || job.State != db.JobRunning {
		t.Fatalf("restored job = %+v, %v", job, err)
	}
	if _, err := restored.GetNode("n1"); err != nil {
		t.Fatalf("restored node: %v", err)
	}
	if len(restored.SamplesInRange("gpu_utilization", "n1",
		t0, t0.Add(2*time.Minute))) == 0 {
		t.Fatal("telemetry history lost in snapshot")
	}
}

func TestPausedNodeKeepsRunningJobs(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag := r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 0)
	ag.Pause()
	r.clock.Advance(2 * time.Minute)

	// The running job continues; only new allocations stop.
	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobRunning {
		t.Fatalf("running job state = %s after pause", st.State)
	}
	job, ok := ag.RunningJob(id)
	if !ok || job.Step() == 0 {
		t.Fatal("job stopped progressing on a paused node")
	}
	// New work queues.
	id2 := submitTraining(t, r, workload.SmallCNN, 0)
	st2, _ := r.coord.JobStatus(id2)
	if st2.State != db.JobPending {
		t.Fatalf("new job state = %s on a fully-paused campus", st2.State)
	}
}

func TestConsecutiveEmergenciesExhaustCampus(t *testing.T) {
	// Every node dies; the job parks pending; a re-registration revives
	// the campus and the job resumes from its checkpoint.
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	ag2 := r.addNode("n2", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 15)
	r.clock.Advance(time.Minute)

	ag1.Depart(api.DepartEmergency, 0)
	ag2.Depart(api.DepartEmergency, 0)
	r.clock.Advance(time.Minute) // detection for both

	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobPending {
		t.Fatalf("state = %s with no nodes left, want pending", st.State)
	}

	// One provider returns via re-registration.
	ag1.Return()
	if _, err := ag1.Join("inproc://n1", 1<<30); err != nil {
		t.Fatal(err)
	}

	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID != "n1" {
		t.Fatalf("after revival: %+v", st)
	}
	job, ok := ag1.RunningJob(id)
	if !ok || job.Step() == 0 {
		t.Fatal("revived job lost its checkpointed progress")
	}
}

func TestMigrationStatsExposedThroughCoordinator(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	submitTraining(t, r, workload.SmallCNN, 30)
	r.clock.Advance(time.Minute)
	ag1.Depart(api.DepartScheduled, time.Minute)

	stats := r.coord.Migration().Stats()
	if stats.Attempts[migration.ReasonScheduled] != 1 {
		t.Fatalf("attempts = %+v", stats.Attempts)
	}
	if stats.SuccessRate(migration.ReasonScheduled) != 1 {
		t.Fatalf("success rate = %v", stats.SuccessRate(migration.ReasonScheduled))
	}
}
