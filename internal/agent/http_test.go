package agent

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/workload"
)

// httpPair serves a rig's agent over real HTTP and returns a client.
func httpPair(t *testing.T, r *testRig) *api.AgentClient {
	t.Helper()
	srv := httptest.NewServer(r.agent.Handler())
	t.Cleanup(srv.Close)
	return api.NewAgentClient(srv.URL)
}

func TestHTTPLaunchAndStatus(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	spec := workload.SmallCNN
	resp, err := c.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContainerID != "ctr-j1" || resp.DeviceID == "" {
		t.Fatalf("resp = %+v", resp)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.RunningJobs) != 1 || st.RunningJobs[0] != "j1" {
		t.Fatalf("status = %+v", st)
	}
}

func TestHTTPLaunchDuplicateIdempotent(t *testing.T) {
	// Over HTTP a retried launch request is exactly the duplicate-
	// delivery case: the agent re-acknowledges the running placement
	// instead of erroring, so the coordinator's retry converges.
	r := newRig(t)
	c := httpPair(t, r)
	spec := workload.SmallCNN
	req := api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}
	first, err := c.Launch(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Launch(req)
	if err != nil {
		t.Fatalf("duplicate launch failed over HTTP: %v", err)
	}
	if resp != first {
		t.Fatalf("duplicate ack %+v differs from original %+v", resp, first)
	}
	if st := r.agent.Status(); len(st.RunningJobs) != 1 {
		t.Fatalf("duplicate launch changed the job set: %+v", st.RunningJobs)
	}
}

func TestHTTPKillEndpoint(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	spec := workload.SmallCNN
	if _, err := c.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(api.KillRequest{JobID: "j1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill(api.KillRequest{JobID: "j1"}); err == nil {
		t.Fatal("double kill succeeded over HTTP")
	}
}

func TestHTTPCheckpointEndpoint(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	spec := workload.SmallCNN
	if _, err := c.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(5 * time.Second)
	resp, err := c.Checkpoint(api.CheckpointRequest{JobID: "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Bytes <= 0 {
		t.Fatalf("checkpoint = %+v", resp)
	}
	if _, err := c.Checkpoint(api.CheckpointRequest{JobID: "ghost"}); err == nil {
		t.Fatal("checkpointing unknown job succeeded")
	}
}

func TestHTTPProviderControlEndpoints(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	spec := workload.SmallCNN
	if _, err := c.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}

	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Status(); !st.Paused {
		t.Fatal("pause not reflected")
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}

	ks, err := c.KillSwitch()
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.KilledJobs) != 1 || ks.KilledJobs[0] != "j1" {
		t.Fatalf("killswitch = %+v", ks)
	}
}

func TestHTTPDepartEndpoint(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	if err := c.Depart(api.DepartScheduled, time.Minute); err != nil {
		t.Fatal(err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Departed {
		t.Fatal("departure not reflected in status")
	}
}

func TestHTTPBadJSONRejected(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(r.agent.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/v1/launch", "application/json",
		strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPClientAgainstDeadServer(t *testing.T) {
	c := api.NewAgentClient("http://127.0.0.1:1") // nothing listens here
	if _, err := c.Launch(api.LaunchRequest{JobID: "j"}); err == nil {
		t.Fatal("launch against dead server succeeded")
	}
	if _, err := c.Status(); err == nil {
		t.Fatal("status against dead server succeeded")
	}
	if err := c.Pause(); err == nil {
		t.Fatal("pause against dead server succeeded")
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	r := newRig(t)
	srv := httptest.NewServer(r.agent.Handler())
	defer srv.Close()
	// GET on a POST-only route.
	resp, err := srv.Client().Get(srv.URL + "/v1/killswitch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestStaleLeaderCheckpointOrderRefused: a checkpoint order from a
// leader epoch below the one the agent has observed comes from a deposed
// leader and is refused — ErrStaleLeader in-process, 409 over HTTP —
// without capturing anything; the current leader's order is served.
func TestStaleLeaderCheckpointOrderRefused(t *testing.T) {
	r := newRig(t)
	c := httpPair(t, r)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	r.clock.Advance(5 * time.Second)
	r.agent.ObserveEpoch(3)

	stale := api.CheckpointRequest{Envelope: api.Envelope{LeaderEpoch: 2}, JobID: "j1"}
	if _, err := r.agent.Checkpoint(stale); !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("in-process stale order: %v, want ErrStaleLeader", err)
	}
	var apiErr api.Error
	if _, err := c.Checkpoint(stale); !errors.As(err, &apiErr) || apiErr.Code != http.StatusConflict {
		t.Fatalf("stale order over HTTP: %v, want a 409", err)
	}
	if seqs, _ := r.ckpts.Sequences("j1"); len(seqs) != 0 {
		t.Fatalf("stale orders captured checkpoints %v", seqs)
	}
	resp, err := c.Checkpoint(api.CheckpointRequest{Envelope: api.Envelope{LeaderEpoch: 3}, JobID: "j1"})
	if err != nil || resp.Seq != 1 {
		t.Fatalf("current leader's order = %+v, %v", resp, err)
	}
}
