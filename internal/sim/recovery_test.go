package sim

import (
	"testing"
	"time"
)

// TestCrashRecovery is the coordinator crash/restart acceptance
// scenario: a coordinator dies mid-run and its successor must restore
// nodes, jobs and allocations byte-for-byte from snapshot + WAL, then
// drain the recovered queue without any resubmission.
func TestCrashRecovery(t *testing.T) {
	res, err := RunCrashRecovery(CrashRecoveryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PendingAtCrash == 0 {
		t.Fatalf("scenario too small: nothing pending at crash (%+v)", res)
	}
	if res.RunningAtCrash == 0 {
		t.Fatalf("scenario too small: nothing running at crash (%+v)", res)
	}
	if !res.Recovery.SnapshotLoaded {
		t.Errorf("no snapshot recovered: %+v", res.Recovery)
	}
	if res.Recovery.Replayed == 0 {
		t.Errorf("no WAL tail replayed: %+v", res.Recovery)
	}
	if !res.NodesIntact || !res.JobsIntact || !res.AllocsIntact {
		t.Fatalf("recovered state differs from pre-crash state: nodes=%v jobs=%v allocs=%v",
			res.NodesIntact, res.JobsIntact, res.AllocsIntact)
	}
	if res.RecoveredJobs != res.SubmittedJobs {
		t.Fatalf("recovered %d of %d jobs", res.RecoveredJobs, res.SubmittedJobs)
	}
	if res.LostJobs != 0 {
		t.Fatalf("%d jobs lost across the restart", res.LostJobs)
	}
	// Every pre-crash job plus the post-restart one must finish purely
	// from recovered state.
	if want := res.SubmittedJobs + 1; res.CompletedAfterRecovery != want {
		t.Fatalf("completed %d of %d jobs after recovery", res.CompletedAfterRecovery, want)
	}
	if res.NewJobID == "" {
		t.Fatal("post-recovery submission failed")
	}
	checkGolden(t, "crash-recovery", res)
}

// TestCrashRecoveryWithoutSnapshot forces the pure-log path: no
// checkpoint ever ran, so the whole history replays from segment zero.
func TestCrashRecoveryWithoutSnapshot(t *testing.T) {
	res, err := RunCrashRecovery(CrashRecoveryConfig{
		NoSnapshot: true, Nodes: 2, Jobs: 5, PostRecovery: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.SnapshotLoaded {
		t.Fatalf("unexpected snapshot: %+v", res.Recovery)
	}
	if !res.NodesIntact || !res.JobsIntact || !res.AllocsIntact {
		t.Fatalf("log-only recovery differs from pre-crash state: %+v", res)
	}
	if res.LostJobs != 0 {
		t.Fatalf("%d jobs lost across the restart", res.LostJobs)
	}
}
