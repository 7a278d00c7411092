package api

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/workload"
)

// roundTrip encodes and decodes v into out, failing the test on error.
func roundTrip(t *testing.T, v, out any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

func TestRegisterRequestRoundTrip(t *testing.T) {
	in := RegisterRequest{
		MachineID: "node-abc", Addr: "http://10.0.0.5:7070",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		Kernel: "5.15", StorageBytes: 1 << 30,
	}
	var out RegisterRequest
	roundTrip(t, in, &out)
	if out.MachineID != in.MachineID || len(out.GPUs) != 1 || out.GPUs[0].Model != "RTX 3090" {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestHeartbeatRequestRoundTrip(t *testing.T) {
	in := HeartbeatRequest{
		MachineID: "node-abc", Token: "tok",
		Telemetry: []gpu.Telemetry{{DeviceID: "gpu0", Utilization: 0.95,
			UsedMemMiB: 8000, TotalMemMiB: 24576, TemperatureC: 77, PowerW: 330, Allocated: true}},
		RunningJobs: []string{"job-1"},
		Paused:      true,
	}
	var out HeartbeatRequest
	roundTrip(t, in, &out)
	if !out.Paused || len(out.Telemetry) != 1 || out.Telemetry[0].Utilization != 0.95 {
		t.Fatalf("round trip = %+v", out)
	}
}

func TestSubmitJobRequestCarriesTrainingSpec(t *testing.T) {
	spec := workload.SmallTransformer
	in := SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 600,
		Training: &spec,
	}
	var out SubmitJobRequest
	roundTrip(t, in, &out)
	if out.Training == nil {
		t.Fatal("training spec lost in transit")
	}
	if out.Training.TotalSteps != spec.TotalSteps || out.Training.Class != spec.Class {
		t.Fatalf("training = %+v", out.Training)
	}
}

func TestLaunchResponseRestoreStep(t *testing.T) {
	var out LaunchResponse
	roundTrip(t, LaunchResponse{ContainerID: "ctr-j1", DeviceID: "gpu0", RestoreStep: 4200}, &out)
	if out.RestoreStep != 4200 {
		t.Fatalf("restore step = %+v", out)
	}
	raw, err := json.Marshal(LaunchResponse{ContainerID: "ctr-j1", DeviceID: "gpu0"})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "restore_step") {
		t.Fatalf("a fresh start carries a restore step: %s", raw)
	}
}

func TestJobStatusOmitsEmptyTimes(t *testing.T) {
	in := JobStatus{JobID: "j1", State: db.JobPending, Submitted: time.Unix(1000, 0).UTC()}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out JobStatus
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Started.IsZero() || !out.Finished.IsZero() {
		t.Fatalf("zero times not preserved: %+v", out)
	}
}

func TestErrorImplementsError(t *testing.T) {
	var err error = Error{Code: 404, Message: "job not found"}
	if err.Error() != "job not found" {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestDepartReasonValues(t *testing.T) {
	for _, r := range []DepartReason{DepartScheduled, DepartEmergency, DepartTemporary} {
		raw, err := json.Marshal(DepartRequest{MachineID: "n", Reason: r})
		if err != nil {
			t.Fatal(err)
		}
		var out DepartRequest
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Reason != r {
			t.Fatalf("reason = %q, want %q", out.Reason, r)
		}
	}
}

func TestCapabilityOf(t *testing.T) {
	cc := CapabilityOf(8, 6)
	if cc.Major != 8 || cc.Minor != 6 {
		t.Fatalf("CapabilityOf = %+v", cc)
	}
	if !cc.AtLeast(gpu.ComputeCapability{Major: 8, Minor: 0}) {
		t.Fatal("capability comparison broken through the wire type")
	}
}

func TestJobUpdateRequestRoundTrip(t *testing.T) {
	in := JobUpdateRequest{MachineID: "n1", Token: "t", JobID: "j1",
		State: db.JobCompleted, Step: 999}
	var out JobUpdateRequest
	roundTrip(t, in, &out)
	if out.State != db.JobCompleted || out.Step != 999 {
		t.Fatalf("round trip = %+v", out)
	}
}
