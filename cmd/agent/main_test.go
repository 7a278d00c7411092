package main

import (
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

func TestParseGPUFlag(t *testing.T) {
	entries, err := parseGPUFlag("RTX 3090:2,A100:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Model != "RTX 3090" || entries[0].Count != 2 {
		t.Fatalf("first = %+v", entries[0])
	}
	if entries[1].Model != "A100" || entries[1].Count != 1 {
		t.Fatalf("second = %+v", entries[1])
	}
}

func TestParseGPUFlagDefaultCount(t *testing.T) {
	entries, err := parseGPUFlag("A6000")
	if err != nil || len(entries) != 1 || entries[0].Count != 1 {
		t.Fatalf("entries = %+v, %v", entries, err)
	}
}

func TestParseGPUFlagWhitespace(t *testing.T) {
	entries, err := parseGPUFlag(" RTX 4090 : 8 , ")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Model != "RTX 4090" || entries[0].Count != 8 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestParseGPUFlagErrors(t *testing.T) {
	if _, err := parseGPUFlag(""); err == nil {
		t.Fatal("empty flag accepted")
	}
	if _, err := parseGPUFlag("A100:many"); err == nil {
		t.Fatal("non-numeric count accepted")
	}
}

// TestAgentFollowsLeadershipAcrossEndpoints drives the daemon's own
// wiring — coordinatorEndpoints, agent.Join/Beat — against two real
// coordinators over HTTP that share a lease and, standing in for the
// shipped log, a store: the typed not-the-leader reply must survive the
// wire, and after the leader is gone the agent's next beats must land on
// the survivor and re-join under its epoch. A job that finishes while
// the first replica is dead is reported to the survivor.
func TestAgentFollowsLeadershipAcrossEndpoints(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	lease := core.NewLease(core.NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second)
	store := db.New(0)
	var ag *agent.Agent
	boot := func(id string) (*core.Coordinator, *httptest.Server) {
		c, err := core.New(core.Config{HeartbeatInterval: 10 * time.Second, Lease: lease, ReplicaID: id,
			AuthSecret: []byte("shared-across-replicas")},
			clock, store, checkpoint.NewStore(storage.NewMemStore(0)), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		// The coordinators reach the agent in-process; everything the
		// agent sends travels over HTTP.
		srv := httptest.NewServer(c.Handler(func(string) core.AgentHandle { return core.LocalAgent{A: ag} }))
		t.Cleanup(srv.Close)
		return c, srv
	}
	coordA, srvA := boot("coord-a")
	coordB, srvB := boot("coord-b")
	if !coordA.TryLead() {
		t.Fatal("coord-a failed to take the free lease")
	}

	rt := container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(gpu.RTX3090), 0, 0)
	ag = agent.New(agent.Config{MachineID: "node-1", Kernel: "5.15"}, clock, rt,
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	t.Cleanup(ag.Stop)
	// The standby is listed first: the join must walk past it.
	eps := coordinatorEndpoints(srvB.URL + ", " + srvA.URL)
	if len(eps) != 2 || eps[0].ID != srvB.URL || eps[1].ID != srvA.URL {
		t.Fatalf("endpoints = %+v", eps)
	}
	ag.SetEndpoints(eps)

	_, err := ag.Join("http://127.0.0.1:1", 1<<30)
	var nl api.ErrNotLeader
	if !errors.As(err, &nl) || nl.LeaderHint != "coord-a" || nl.Epoch != 1 {
		t.Fatalf("join at the standby = %v, want a typed ErrNotLeader hinting coord-a at epoch 1", err)
	}
	ag.Redirect("")
	if _, err := ag.Join("http://127.0.0.1:1", 1<<30); err != nil {
		t.Fatal(err)
	}
	if hb, err := ag.Beat(); err != nil || !hb.Acknowledged || ag.CoordEpoch() != 1 {
		t.Fatalf("beat at the leader = %+v, %v (epoch %d)", hb, err, ag.CoordEpoch())
	}
	spec := workload.SmallCNN
	spec.TotalSteps = 50 // a few seconds of simulated training
	jobID, err := coordA.SubmitJob(api.SubmitJobRequest{User: "alice", Kind: "batch",
		ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: spec.GPUMemMiB, Training: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := coordA.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "node-1" {
		t.Fatalf("job at the leader = %+v", st)
	}

	// The leader dies; the job finishes while nobody leads, and the
	// standby wins the lease once the grace passes.
	coordA.Stop()
	srvA.Close()
	clock.Advance(40 * time.Second)
	if len(ag.Status().RunningJobs) != 0 {
		t.Fatal("the job did not finish while the leader was dead")
	}
	if !coordB.TryLead() {
		t.Fatal("coord-b failed to take the lapsed lease")
	}
	if _, err := ag.Beat(); err == nil {
		t.Fatal("a beat to a dead endpoint reported success")
	}
	if got := ag.ActiveEndpoint().ID; got != srvB.URL {
		t.Fatalf("after an unanswered beat the active endpoint is %s, want the survivor", got)
	}
	if st, _ := coordB.JobStatus(jobID); st.State != db.JobRunning {
		t.Fatalf("job at the survivor before the agent reached it = %+v", st)
	}
	// The survivor does not know the node's transport yet: the beat
	// re-joins, and the report the dead leader never answered follows.
	if _, err := ag.Beat(); err != nil {
		t.Fatal(err)
	}
	if st, _ := coordB.JobStatus(jobID); st.State != db.JobCompleted {
		t.Fatalf("job at the survivor after the re-join = %+v, want completed", st)
	}
	if hb, err := ag.Beat(); err != nil || !hb.Acknowledged {
		t.Fatalf("beat at the survivor = %+v, %v", hb, err)
	}
	if ag.CoordEpoch() != 2 {
		t.Fatalf("agent observed epoch %d, want 2", ag.CoordEpoch())
	}
	if nodes := coordB.Nodes(); len(nodes) != 1 || nodes[0].ID != "node-1" {
		t.Fatalf("survivor's fleet = %+v", nodes)
	}
}
