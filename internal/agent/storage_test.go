package agent

import (
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/workload"
)

// launchWithPrefs starts a training job with user storage preferences.
func launchWithPrefs(t *testing.T, r *testRig, jobID string, prefs []string) {
	t.Helper()
	spec := workload.SmallCNN
	_, err := r.agent.Launch(api.LaunchRequest{
		JobID: jobID, ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 30,
		Training: &spec, StoragePrefs: prefs,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNoPrefsUsesDefaultStoreOnly(t *testing.T) {
	r := newRig(t)
	launchWithPrefs(t, r, "j1", nil)
	r.clock.Advance(40 * time.Second)

	if seqs, err := r.ckpts.Sequences("j1"); err != nil || len(seqs) == 0 {
		t.Fatalf("default store sequences = %v, %v", seqs, err)
	}
}

func TestUnresolvablePrefsStillCheckpoint(t *testing.T) {
	r := newRig(t)
	launchWithPrefs(t, r, "j1", []string{"ghost-store"})
	r.clock.Advance(40 * time.Second)

	// The agent does not act on the preference; the platform store
	// still protects the job.
	if seqs, err := r.ckpts.Sequences("j1"); err != nil || len(seqs) == 0 {
		t.Fatalf("platform store sequences = %v, %v", seqs, err)
	}
}
