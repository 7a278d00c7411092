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
// wiring — coordinatorEndpoints, activeLink, agent.Join/Beat — against
// two real coordinators over HTTP that share a lease: the typed
// not-the-leader reply must survive the wire, and after the leader is
// gone the agent's next beats must land on the survivor and re-join
// under its epoch.
func TestAgentFollowsLeadershipAcrossEndpoints(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	lease := core.NewLease(core.NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second)
	boot := func(id string) (*core.Coordinator, *httptest.Server) {
		c, err := core.New(core.Config{HeartbeatInterval: 10 * time.Second, Lease: lease, ReplicaID: id,
			AuthSecret: []byte("shared-across-replicas")},
			clock, db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		srv := httptest.NewServer(c.Handler(nil))
		t.Cleanup(srv.Close)
		return c, srv
	}
	coordA, srvA := boot("coord-a")
	coordB, srvB := boot("coord-b")
	if !coordA.TryLead() {
		t.Fatal("coord-a failed to take the free lease")
	}

	rt := container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(gpu.RTX3090), 0, 0)
	ag := agent.New(agent.Config{MachineID: "node-1", Kernel: "5.15"}, clock, rt,
		checkpoint.NewStore(storage.NewMemStore(0)), nil, nil)
	t.Cleanup(ag.Stop)
	// The standby is listed first: the join must walk past it.
	eps := coordinatorEndpoints(srvB.URL + ", " + srvA.URL)
	if len(eps) != 2 || eps[0].ID != srvB.URL || eps[1].ID != srvA.URL {
		t.Fatalf("endpoints = %+v", eps)
	}
	ag.SetEndpoints(eps)
	link := activeLink{ag}

	_, err := ag.Join(link, "http://127.0.0.1:1", 1<<30)
	var nl api.ErrNotLeader
	if !errors.As(err, &nl) || nl.LeaderHint != "coord-a" || nl.Epoch != 1 {
		t.Fatalf("join at the standby = %v, want a typed ErrNotLeader hinting coord-a at epoch 1", err)
	}
	ag.Redirect("")
	if _, err := ag.Join(link, "http://127.0.0.1:1", 1<<30); err != nil {
		t.Fatal(err)
	}
	if hb, err := ag.Beat(link); err != nil || !hb.Acknowledged || ag.CoordEpoch() != 1 {
		t.Fatalf("beat at the leader = %+v, %v (epoch %d)", hb, err, ag.CoordEpoch())
	}

	// The leader dies; the standby wins the lease once the grace passes.
	coordA.Stop()
	srvA.Close()
	clock.Advance(40 * time.Second)
	if !coordB.TryLead() {
		t.Fatal("coord-b failed to take the lapsed lease")
	}
	if _, err := ag.Beat(link); err == nil {
		t.Fatal("a beat to a dead endpoint reported success")
	}
	if got := ag.ActiveEndpoint().ID; got != srvB.URL {
		t.Fatalf("after an unanswered beat the active endpoint is %s, want the survivor", got)
	}
	// The survivor does not know the node yet: the beat re-joins.
	if _, err := ag.Beat(link); err != nil {
		t.Fatal(err)
	}
	if hb, err := ag.Beat(link); err != nil || !hb.Acknowledged {
		t.Fatalf("beat at the survivor = %+v, %v", hb, err)
	}
	if ag.CoordEpoch() != 2 {
		t.Fatalf("agent observed epoch %d, want 2", ag.CoordEpoch())
	}
	if nodes := coordB.Nodes(); len(nodes) != 1 || nodes[0].ID != "node-1" {
		t.Fatalf("survivor's fleet = %+v", nodes)
	}
}
