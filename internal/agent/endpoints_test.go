package agent

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/workload"
)

func TestSetEndpointsAndRedirect(t *testing.T) {
	r := newRig(t)
	a, b := &fakeNotifier{}, &fakeNotifier{}
	r.agent.SetEndpoints([]Endpoint{{ID: "coord-a", Notifier: a}, {ID: "coord-b", Notifier: b}})
	if got := r.agent.ActiveEndpoint().ID; got != "coord-a" {
		t.Fatalf("active = %q", got)
	}
	// A leader hint redirects to the named endpoint.
	if !r.agent.Redirect("coord-b") {
		t.Fatal("hinted redirect failed")
	}
	if got := r.agent.ActiveEndpoint().ID; got != "coord-b" {
		t.Fatalf("active after hint = %q", got)
	}
	// No hint: round-robin to the next endpoint.
	if !r.agent.Redirect("") {
		t.Fatal("round-robin redirect failed")
	}
	if got := r.agent.ActiveEndpoint().ID; got != "coord-a" {
		t.Fatalf("active after round-robin = %q", got)
	}
	// Job updates flow to the active endpoint only.
	spec := workload.SmallCNN
	spec.TotalSteps = 50 // finishes in a few seconds of sim time
	launchTraining(t, r, "j1", spec, 0)
	r.clock.Advance(time.Minute)
	if len(a.updates) == 0 || len(b.updates) != 0 {
		t.Fatalf("updates a=%d b=%d", len(a.updates), len(b.updates))
	}
}

func TestRedirectWithoutAlternativesFails(t *testing.T) {
	r := newRig(t)
	if r.agent.Redirect("") {
		t.Fatal("redirect succeeded with a single endpoint and no hint")
	}
	if r.agent.Redirect("nonexistent") {
		t.Fatal("redirect succeeded to an unknown endpoint")
	}
}

func TestAgentFencesStaleLeaderEpoch(t *testing.T) {
	r := newRig(t)
	r.agent.ObserveEpoch(3)
	if got := r.agent.CoordEpoch(); got != 3 {
		t.Fatalf("observed epoch = %d", got)
	}
	// A launch from an older term must be rejected: the sender was
	// deposed and its placement decisions are stale.
	spec := workload.SmallCNN
	_, err := r.agent.Launch(api.LaunchRequest{
		Envelope: api.Envelope{LeaderEpoch: 2},
		JobID:    "jz", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("stale launch admitted: %v", err)
	}
	// Same fence on kills.
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if err := r.agent.KillJob(api.KillRequest{
		Envelope: api.Envelope{LeaderEpoch: 2}, JobID: "j1",
	}); !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("stale kill admitted: %v", err)
	}
	// The current term (and a newer one, which raises the floor) pass.
	if err := r.agent.KillJob(api.KillRequest{
		Envelope: api.Envelope{LeaderEpoch: 4}, JobID: "j1",
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.CoordEpoch(); got != 4 {
		t.Fatalf("epoch floor not raised: %d", got)
	}
	// Zero epoch (legacy/standalone coordinator) is always admitted.
	launchTraining(t, r, "j2", workload.SmallCNN, 0)
	if err := r.agent.KillJob(api.KillRequest{JobID: "j2"}); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatAndRegisterCarryEnvelope(t *testing.T) {
	r := newRig(t)
	r.agent.ObserveEpoch(5)
	hb := r.agent.HeartbeatRequest()
	if hb.ProtocolVersion != api.ProtocolVersion || hb.LeaderEpoch != 5 {
		t.Fatalf("heartbeat envelope = %+v", hb.Envelope)
	}
	reg := r.agent.RegisterRequest("inproc://x", 1<<30)
	if reg.ProtocolVersion != api.ProtocolVersion || reg.LeaderEpoch != 5 {
		t.Fatalf("register envelope = %+v", reg.Envelope)
	}
}
