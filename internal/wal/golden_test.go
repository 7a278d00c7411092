package wal

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpunion/internal/db"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden recovery fixtures")

// goldenT0 anchors every timestamp in the recorded stream; all times
// are explicit UTC instants so the fixture is stable across machines.
var goldenT0 = time.Date(2025, 9, 1, 8, 0, 0, 0, time.UTC)

// driveGoldenPhase1 and driveGoldenPhase2 are the recorded mutation
// stream: a deterministic, single-goroutine driver covering every
// logged mutation type (node puts, job transitions, allocation
// open/close) plus monitoring samples, which are soft state and never
// reach the log. Device flags move with the job writes, as the store
// derives them; nothing writes them. Phase 1 is captured by the
// snapshot — its samples with it; phase 2 replays from the log tail and
// its samples are lost with the crash.
func driveGoldenPhase1(s db.Store) {
	for i := 0; i < 4; i++ {
		s.UpsertNode(db.NodeRecord{
			ID: fmt.Sprintf("node-%02d", i), Addr: fmt.Sprintf("http://10.0.0.%d", i),
			Status: db.NodeActive, Kernel: "5.15",
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: goldenT0, LastHeartbeat: goldenT0, LastJoin: goldenT0,
		})
	}
	for i := 0; i < 6; i++ {
		_ = s.InsertJob(db.JobRecord{
			ID: fmt.Sprintf("job-%03d", i), User: fmt.Sprintf("user-%d", i%2),
			Kind: "batch", State: db.JobPending, GPUMemMiB: 8192,
			ImageName: "pytorch/pytorch:2.3-cuda12", SubmittedAt: goldenT0.Add(time.Duration(i) * time.Minute),
		})
	}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("job-%03d", i)
		node := fmt.Sprintf("node-%02d", i)
		placed := goldenT0.Add(10*time.Minute + time.Duration(i)*time.Second)
		_ = s.UpdateJob(id, func(j *db.JobRecord) {
			j.State = db.JobRunning
			j.NodeID, j.DeviceID = node, "gpu0"
			j.StartedAt, j.PlacedAt = placed, placed
		})
		s.RecordAllocation(db.AllocationRecord{JobID: id, NodeID: node, DeviceID: "gpu0", Start: placed})
	}
	for i := 0; i < 8; i++ {
		s.AppendSample(db.Sample{
			Time:   goldenT0.Add(time.Duration(i+1) * 30 * time.Second),
			NodeID: fmt.Sprintf("node-%02d", i%4), Metric: "gpu_utilization",
			Value: float64(10*i) / 100,
		})
	}
}

func driveGoldenPhase2(s db.Store) {
	end := goldenT0.Add(time.Hour)
	// job-000 completes; job-001 migrates to node-03's freed slot.
	_ = s.UpdateJob("job-000", func(j *db.JobRecord) {
		j.State = db.JobCompleted
		j.FinishedAt = end
	})
	_ = s.CloseAllocation("job-000", end)

	_ = s.CloseAllocation("job-001", end.Add(time.Minute))
	// The retired migrating state, as older builds logged a move: the
	// fixtures keep proving that such a log replays.
	_ = s.UpdateJob("job-001", func(j *db.JobRecord) { j.State = db.JobState("migrating") })
	moved := end.Add(2 * time.Minute)
	_ = s.UpdateJob("job-001", func(j *db.JobRecord) {
		j.State = db.JobRunning
		j.NodeID = "node-00"
		j.PlacedAt = moved
		j.Migrations++
	})
	s.RecordAllocation(db.AllocationRecord{JobID: "job-001", NodeID: "node-00", DeviceID: "gpu0", Start: moved})

	// node-02 departs; its job requeues.
	_ = s.UpdateNode("node-02", func(n *db.NodeRecord) {
		n.Status = db.NodeDeparted
		n.Departures++
	})
	_ = s.CloseAllocation("job-002", end.Add(3*time.Minute))
	_ = s.UpdateJob("job-002", func(j *db.JobRecord) {
		j.State = db.JobPending
		j.NodeID, j.DeviceID = "", ""
	})
	for i := 0; i < 4; i++ {
		s.AppendSample(db.Sample{
			Time:   end.Add(time.Duration(i+1) * 30 * time.Second),
			NodeID: fmt.Sprintf("node-%02d", i%4), Metric: "gpu_memory_used_mib",
			Value: float64(2048 * i),
		})
	}
}

func goldenPath(name string) string { return filepath.Join("testdata", name) }

func marshalState(t *testing.T, st db.State) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// TestGoldenStateRecovery drives the recorded mutation stream through
// a WAL-backed store (snapshot mid-stream, crash at the end), recovers
// a fresh store from snapshot + log, and compares its ExportState
// byte-for-byte against the checked-in fixture. It then replays the
// checked-in mutation stream through Apply alone and requires the very
// same bytes in every table but Samples (a log alone does not carry
// them; both sides are compared with Samples cleared) — proving
// snapshot+replay and pure replay converge to one canonical state.
//
// Regenerate fixtures with: go test ./internal/wal -run Golden -update-golden
func TestGoldenStateRecovery(t *testing.T) {
	dir := t.TempDir()
	live := db.New(0)

	// Record the stream exactly as the WAL observes it.
	var stream []db.Mutation
	m, err := Open(dir, live, Config{})
	if err != nil {
		t.Fatal(err)
	}
	hook := func(mut db.Mutation) {
		if err := m.Writer().Append(mut); err != nil {
			t.Errorf("append: %v", err)
		}
		stream = append(stream, mut)
	}
	live.SetMutationHook(hook)

	driveGoldenPhase1(live)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	driveGoldenPhase2(live)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := db.New(0)
	res, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || res.Replayed == 0 {
		t.Fatalf("recovery did not exercise snapshot+replay: %+v", res)
	}
	got := marshalState(t, recovered.ExportState())

	streamJSON, err := json.MarshalIndent(stream, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	streamJSON = append(streamJSON, '\n')

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("state.golden.json"), got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("mutations.golden.json"), streamJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden fixtures rewritten")
	}

	want, err := os.ReadFile(goldenPath("state.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered ExportState diverged from golden fixture (%d vs %d bytes);\n"+
			"if the schema changed intentionally, regenerate with -update-golden",
			len(got), len(want))
	}

	// Replay the checked-in stream through Apply alone.
	fixtureStream, err := os.ReadFile(goldenPath("mutations.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var muts []db.Mutation
	if err := json.Unmarshal(fixtureStream, &muts); err != nil {
		t.Fatal(err)
	}
	replayed := db.New(0)
	for _, mut := range muts {
		if err := replayed.Apply(mut); err != nil {
			t.Fatal(err)
		}
	}
	var wantState db.State
	if err := json.Unmarshal(want, &wantState); err != nil {
		t.Fatal(err)
	}
	gotState := replayed.ExportState()
	if len(gotState.Samples) != 0 {
		t.Errorf("pure replay produced %d samples; the log carries none", len(gotState.Samples))
	}
	wantState.Samples, gotState.Samples = nil, nil
	if !bytes.Equal(marshalState(t, gotState), marshalState(t, wantState)) {
		t.Error("pure replay of the recorded stream diverged from the golden state")
	}
}

// TestReplayDerivesStoredFlags replays a log written when node
// after-images carried device flags of their own (placements and ends
// each logged a node record flipping one), kept in
// testdata/stored-flags.mutations.json. Replay trusts none of them:
// after every record, each device reads allocated exactly while a
// running job in the replayed job table names it.
func TestReplayDerivesStoredFlags(t *testing.T) {
	raw, err := os.ReadFile(goldenPath("stored-flags.mutations.json"))
	if err != nil {
		t.Fatal(err)
	}
	var muts []db.Mutation
	if err := json.Unmarshal(raw, &muts); err != nil {
		t.Fatal(err)
	}
	store := db.New(0)
	for _, mut := range muts {
		if err := store.Apply(mut); err != nil {
			t.Fatal(err)
		}
		held := make(map[string]bool)
		for _, j := range store.ListJobs() {
			if j.State == db.JobRunning {
				held[j.NodeID+"/"+j.DeviceID] = true
			}
		}
		for _, n := range store.ListNodes() {
			for _, g := range n.GPUs {
				if g.Allocated != held[n.ID+"/"+g.DeviceID] {
					t.Fatalf("after LSN %d (%s): %s/%s reads allocated=%t, the job table says %t",
						mut.LSN, mut.Type, n.ID, g.DeviceID, g.Allocated, !g.Allocated)
				}
			}
		}
	}
}
