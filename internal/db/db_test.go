package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func node(id string, status NodeStatus) NodeRecord {
	return NodeRecord{
		ID: id, Addr: "http://" + id + ":7070", Status: status,
		GPUs:         []GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		Kernel:       "5.15",
		RegisteredAt: t0,
	}
}

func job(id string, state JobState, prio int, submitted time.Time) JobRecord {
	return JobRecord{ID: id, User: "alice", Kind: "batch", State: state,
		Priority: prio, GPUMemMiB: 8192, SubmittedAt: submitted}
}

func TestUpsertGetNode(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	got, err := d.GetNode("n1")
	if err != nil || got.Addr != "http://n1:7070" {
		t.Fatalf("GetNode = %+v, %v", got, err)
	}
	if _, err := d.GetNode("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestUpsertReplaces(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	n := node("n1", NodePaused)
	d.UpsertNode(n)
	got, _ := d.GetNode("n1")
	if got.Status != NodePaused {
		t.Fatalf("status = %s", got.Status)
	}
}

func TestUpdateNode(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	err := d.UpdateNode("n1", func(n *NodeRecord) {
		n.Departures++
		n.Status = NodeDeparted
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.GetNode("n1")
	if got.Departures != 1 || got.Status != NodeDeparted {
		t.Fatalf("record = %+v", got)
	}
	if err := d.UpdateNode("ghost", func(*NodeRecord) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetNodeReturnsCopy(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	got, _ := d.GetNode("n1")
	got.Status = NodeDeparted
	again, _ := d.GetNode("n1")
	if again.Status != NodeActive {
		t.Fatal("GetNode exposed internal record")
	}
}

// TestTouchNodesSharesDevicesImmutably: the record TouchNodes installs
// shares its predecessor's GPUs slice, so a later device flip must land
// on a copy — a record read before it, at either side of the touch,
// keeps the devices it was read with.
func TestTouchNodesSharesDevicesImmutably(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	before, _ := d.GetNode("n1")
	if d.TouchNodes([]BeatDelta{{NodeID: "n1", At: t0.Add(time.Second)}}) != 1 {
		t.Fatal("TouchNodes applied nothing")
	}
	touched, _ := d.GetNode("n1")
	installed := d.ActiveNodes()[0]
	if err := d.UpdateNode("n1", func(n *NodeRecord) { n.GPUs[0].Allocated = true }); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]NodeRecord{"before the touch": before, "after the touch": touched, "installed by the touch": *installed} {
		if rec.GPUs[0].Allocated {
			t.Errorf("record read %s changed under a later UpdateNode", name)
		}
	}
	if after, _ := d.GetNode("n1"); !after.GPUs[0].Allocated || !after.LastHeartbeat.Equal(t0.Add(time.Second)) {
		t.Fatalf("record after the update = %+v", after)
	}
}

func TestListNodesSorted(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n2", NodeActive))
	d.UpsertNode(node("n1", NodePaused))
	got := d.ListNodes()
	if len(got) != 2 || got[0].ID != "n1" || got[1].ID != "n2" {
		t.Fatalf("ListNodes = %+v", got)
	}
}

func TestActiveNodesFilter(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	d.UpsertNode(node("n2", NodePaused))
	d.UpsertNode(node("n3", NodeDeparted))
	d.UpsertNode(node("n4", NodeUnreachable))
	active := d.ActiveNodes()
	if len(active) != 1 || active[0].ID != "n1" {
		t.Fatalf("ActiveNodes = %+v", active)
	}
}

func TestInsertJobConflict(t *testing.T) {
	d := New(0)
	if err := d.InsertJob(job("j1", JobPending, 0, t0)); err != nil {
		t.Fatal(err)
	}
	if err := d.InsertJob(job("j1", JobPending, 0, t0)); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
}

func TestUpdateJob(t *testing.T) {
	d := New(0)
	if err := d.InsertJob(job("j1", JobPending, 0, t0)); err != nil {
		t.Fatal(err)
	}
	err := d.UpdateJob("j1", func(j *JobRecord) {
		j.State = JobRunning
		j.NodeID = "n1"
		j.Migrations++
	})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.GetJob("j1")
	if got.State != JobRunning || got.NodeID != "n1" || got.Migrations != 1 {
		t.Fatalf("job = %+v", got)
	}
}

func TestJobsInStateQueueOrder(t *testing.T) {
	d := New(0)
	// Same priority: FIFO by submission. Higher priority first.
	_ = d.InsertJob(job("j-low-late", JobPending, 1, t0.Add(2*time.Minute)))
	_ = d.InsertJob(job("j-low-early", JobPending, 1, t0))
	_ = d.InsertJob(job("j-high", JobPending, 5, t0.Add(time.Hour)))
	_ = d.InsertJob(job("j-running", JobRunning, 9, t0))
	q := d.JobsInState(JobPending)
	if len(q) != 3 {
		t.Fatalf("queue len = %d", len(q))
	}
	if q[0].ID != "j-high" || q[1].ID != "j-low-early" || q[2].ID != "j-low-late" {
		t.Fatalf("queue order = %s, %s, %s", q[0].ID, q[1].ID, q[2].ID)
	}
}

// TestJobsOnNode: only running records are on a node; a completed one
// and a record in the retired migrating state of older logs are not.
func TestJobsOnNode(t *testing.T) {
	d := New(0)
	j1 := job("j1", JobRunning, 0, t0)
	j1.NodeID = "n1"
	j2 := job("j2", JobState("migrating"), 0, t0)
	j2.NodeID = "n1"
	j3 := job("j3", JobCompleted, 0, t0)
	j3.NodeID = "n1"
	j4 := job("j4", JobRunning, 0, t0)
	j4.NodeID = "n2"
	for _, j := range []JobRecord{j1, j2, j3, j4} {
		if err := d.InsertJob(j); err != nil {
			t.Fatal(err)
		}
	}
	got := d.JobsOnNode("n1")
	if len(got) != 1 || got[0].ID != "j1" {
		t.Fatalf("JobsOnNode = %+v, want j1 alone", got)
	}
}

func TestAllocationLifecycle(t *testing.T) {
	d := New(0)
	d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "gpu0", Start: t0})
	d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n2", DeviceID: "gpu1", Start: t0.Add(time.Hour)})
	if err := d.CloseAllocation("j1", t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	allocs := d.Allocations()
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	// The most recent open episode is closed, not the first.
	if !allocs[1].End.Equal(t0.Add(2 * time.Hour)) {
		t.Fatalf("second allocation end = %v", allocs[1].End)
	}
	if !allocs[0].End.IsZero() {
		t.Fatalf("first allocation end = %v, want open", allocs[0].End)
	}
}

func TestCloseAllocationMissing(t *testing.T) {
	d := New(0)
	if err := d.CloseAllocation("ghost", t0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloseAllocationEpisodeMatchesIdentity(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func() Store
	}{
		{"sharded", func() Store { return New(0) }},
		{"singlemutex", func() Store { return NewWithShards(0, 1) }}, // one lock per table
	} {
		t.Run(mk.name, func(t *testing.T) {
			d := mk.new()
			// An old episode on n1 and a fresh one on n2 — the shape a
			// requeue-then-re-place race leaves behind.
			d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "gpu0", Start: t0})
			d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n2", DeviceID: "gpu1", Start: t0.Add(time.Hour)})

			// Closing by the n1 identity must not touch the n2 episode,
			// even though n2's is the most recent open one.
			if err := d.CloseAllocationEpisode("j1", "n1", "gpu0", t0.Add(2*time.Hour)); err != nil {
				t.Fatal(err)
			}
			allocs := d.Allocations()
			if allocs[0].End.IsZero() || !allocs[1].End.IsZero() {
				t.Fatalf("wrong episode closed: %+v", allocs)
			}
			// A second close of the same identity finds nothing open.
			if err := d.CloseAllocationEpisode("j1", "n1", "gpu0", t0.Add(3*time.Hour)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("duplicate close err = %v", err)
			}
			if err := d.CloseAllocationEpisode("ghost", "n1", "gpu0", t0); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing job err = %v", err)
			}
		})
	}
}

func TestSamplesRangeQuery(t *testing.T) {
	d := New(0)
	for i := 0; i < 10; i++ {
		d.AppendSample(Sample{
			Time: t0.Add(time.Duration(i) * time.Minute), NodeID: "n1",
			Metric: "gpu_util", Value: float64(i) / 10,
		})
	}
	d.AppendSample(Sample{Time: t0, NodeID: "n2", Metric: "gpu_util", Value: 0.5})
	d.AppendSample(Sample{Time: t0, NodeID: "n1", Metric: "gpu_temp", Value: 60})

	got := d.SamplesInRange("gpu_util", "n1", t0.Add(2*time.Minute), t0.Add(5*time.Minute))
	if len(got) != 3 {
		t.Fatalf("samples = %d, want 3", len(got))
	}
	all := d.SamplesInRange("gpu_util", "", t0, t0.Add(time.Minute))
	if len(all) != 2 { // n1's first + n2's
		t.Fatalf("all-node samples = %d, want 2", len(all))
	}
}

func TestSampleRetentionBound(t *testing.T) {
	d := New(5)
	for i := 0; i < 10; i++ {
		d.AppendSample(Sample{Time: t0.Add(time.Duration(i) * time.Second), Metric: "m", Value: float64(i)})
	}
	got := d.SamplesInRange("m", "", t0, t0.Add(time.Hour))
	if len(got) != 5 {
		t.Fatalf("retained = %d, want 5", len(got))
	}
	if got[0].Value != 5 {
		t.Fatalf("oldest retained = %v, want 5 (earliest evicted)", got[0].Value)
	}
}

func TestExportImportJSONRoundTrip(t *testing.T) {
	d := New(0)
	d.UpsertNode(node("n1", NodeActive))
	if err := d.InsertJob(job("j1", JobRunning, 3, t0)); err != nil {
		t.Fatal(err)
	}
	d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "gpu0", Start: t0})
	d.AppendSample(Sample{Time: t0, NodeID: "n1", Metric: "gpu_util", Value: 0.7})

	// One-shot dumps are the JSON encoding of ExportState; restoring is
	// decoding into a State and importing it.
	blob, err := json.Marshal(d.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	d2 := New(0)
	d2.ImportState(st)
	if n, err := d2.GetNode("n1"); err != nil || n.Status != NodeActive {
		t.Fatalf("node after load = %+v, %v", n, err)
	}
	if j, err := d2.GetJob("j1"); err != nil || j.Priority != 3 {
		t.Fatalf("job after load = %+v, %v", j, err)
	}
	if len(d2.Allocations()) != 1 {
		t.Fatal("allocations lost")
	}
	if len(d2.SamplesInRange("gpu_util", "", t0, t0.Add(time.Second))) != 1 {
		t.Fatal("samples lost")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("n%d", i)
			d.UpsertNode(node(id, NodeActive))
			for k := 0; k < 50; k++ {
				_ = d.UpdateNode(id, func(n *NodeRecord) { n.Departures++ })
				_, _ = d.GetNode(id)
				d.ActiveNodes()
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		n, err := d.GetNode(fmt.Sprintf("n%d", i))
		if err != nil || n.Departures != 50 {
			t.Fatalf("node %d: %+v, %v", i, n, err)
		}
	}
}
