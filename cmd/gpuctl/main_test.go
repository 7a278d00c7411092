package main

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// submit runs `gpuctl submit args...` against a fresh in-process
// coordinator and returns the error and the job records it holds.
func submit(t *testing.T, args ...string) ([]db.JobRecord, error) {
	t.Helper()
	coord, err := core.New(core.Config{HeartbeatInterval: 10 * time.Second},
		simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)), db.New(0),
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	handler := coord.Handler(func(string) core.AgentHandle { return nil })
	c := &core.Client{BaseURL: "http://coordinator",
		HTTPClient: &http.Client{Transport: api.InProcess{Handler: handler}}}
	err = cmdSubmit(c, args)
	return coord.DB().ListJobs(), err
}

// TestSubmitBatchMemory: a batch job asks for its training profile's GPU
// memory unless -gpu-mem says otherwise, and then -gpu-mem wins — an
// invalid amount included, which the coordinator refuses.
func TestSubmitBatchMemory(t *testing.T) {
	jobs, err := submit(t, "-profile", "large-cnn")
	if err != nil || len(jobs) != 1 || jobs[0].GPUMemMiB != workload.LargeCNN.GPUMemMiB {
		t.Fatalf("profile default: jobs %+v, err %v; want one asking %d MiB", jobs, err, workload.LargeCNN.GPUMemMiB)
	}
	jobs, err = submit(t, "-profile", "large-cnn", "-gpu-mem", "20000")
	if err != nil || len(jobs) != 1 || jobs[0].GPUMemMiB != 20000 {
		t.Fatalf("-gpu-mem 20000: jobs %+v, err %v; want one asking 20000 MiB", jobs, err)
	}
	jobs, err = submit(t, "-gpu-mem", "0")
	if err == nil || !strings.Contains(err.Error(), "gpu_mem_mib must be positive") || len(jobs) != 0 {
		t.Fatalf("-gpu-mem 0: jobs %+v, err %v; want the coordinator's refusal", jobs, err)
	}
}
