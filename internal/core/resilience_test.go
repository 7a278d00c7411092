package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
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

// TestRebootInsideDetectionRequeuesJob: a provider loses power and its
// machine boots a fresh agent under the same ID inside one heartbeat
// interval, faster than the failure detector, so the coordinator never
// saw it leave. The workload died with the old agent. Register keeps
// the record's allocation flags, so the new session's first beat finds
// the job missing from its report and requeues it; until then the
// device stays held. At no second may the job read running on a device
// the record holds free, and two beats on it must run where its record
// says.
func TestRebootInsideDetectionRequeuesJob(t *testing.T) {
	r := newRig(t, 10*time.Second)
	old := r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)
	r.clock.Advance(25 * time.Second)

	old.Stop() // the power goes; the agent and its workload with it
	r.clock.Advance(3 * time.Second)
	r.addNode("n1", gpu.RTX3090)
	checker := invariant.NewChecker()
	for s := range 20 {
		for _, v := range checker.Check(r.coord.DB()) {
			t.Fatalf("%d s after the reboot: %s", s, v)
		}
		r.clock.Advance(time.Second)
	}
	st, err := r.coord.JobStatus(id)
	if err != nil || st.State != db.JobRunning {
		t.Fatalf("two beats after the reboot: %+v, %v; want the job placed again", st, err)
	}
	if _, ok := r.ags[st.NodeID].RunningJob(id); !ok {
		t.Fatalf("the job reads running on %s, whose agent does not run it", st.NodeID)
	}
}

func TestRepeatedDeparturesDegradeReliability(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n-flaky", gpu.RTX3090)
	r.addNode("n-solid", gpu.RTX3090)

	// The flaky provider churns five times.
	for i := 0; i < 5; i++ {
		r.ags["n-flaky"].Depart(api.DepartTemporary, 0)
		r.clock.Advance(time.Minute)
		r.reboot("n-flaky", gpu.RTX3090) // its registration brings it back
		r.clock.Advance(30 * time.Second)
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

	// One provider returns: a fresh agent registers.
	ag1 = r.reboot("n1", gpu.RTX3090)

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
	if stats.Successes[migration.ReasonScheduled] != 1 {
		t.Fatalf("successes = %+v", stats.Successes)
	}
}
