package agent

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/workload"
)

func TestNoPrefsUsesDefaultStoreOnly(t *testing.T) {
	r := newRig(t)
	spec := workload.SmallCNN
	if _, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 30, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(40 * time.Second)

	if seqs, err := r.ckpts.Sequences("j1"); err != nil || len(seqs) == 0 {
		t.Fatalf("default store sequences = %v, %v", seqs, err)
	}
}

// TestUnresolvablePrefsStillCheckpoint: an older coordinator's launch
// still carries "storage_prefs"; the agent ignores the key, and the
// platform store protects the job.
func TestUnresolvablePrefsStillCheckpoint(t *testing.T) {
	r := newRig(t)
	spec, err := json.Marshal(workload.SmallCNN)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"job_id":"j1","image_name":"pytorch/pytorch:2.3-cuda12","kind":"batch",`+
		`"gpu_mem_mib":%d,"checkpoint_interval_sec":30,"storage_prefs":["ghost-store"],"training":%s}`,
		workload.SmallCNN.GPUMemMiB, spec)
	rec := httptest.NewRecorder()
	r.agent.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/launch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("launch with storage_prefs = %d %s", rec.Code, rec.Body)
	}
	r.clock.Advance(40 * time.Second)

	if seqs, err := r.ckpts.Sequences("j1"); err != nil || len(seqs) == 0 {
		t.Fatalf("platform store sequences = %v, %v", seqs, err)
	}
}
