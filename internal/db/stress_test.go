package db

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestShardedStressParallelHeartbeats hammers the sharded store with
// the coordinator's real write mix — node heartbeat updates plus
// telemetry appends — from many goroutines, with concurrent job
// mutations, scan readers and snapshotters. Run under -race this is the
// proof the per-shard locking is sound; the final assertions prove no
// update was lost.
func TestShardedStressParallelHeartbeats(t *testing.T) {
	d := New(0)
	const (
		nodes      = 64
		jobs       = 64
		writers    = 8
		iterations = 200
	)
	for i := 0; i < nodes; i++ {
		d.UpsertNode(NodeRecord{ID: fmt.Sprintf("n%02d", i), Status: NodeActive, RegisteredAt: t0})
	}
	for i := 0; i < jobs; i++ {
		if err := d.InsertJob(JobRecord{ID: fmt.Sprintf("j%02d", i), State: JobPending, SubmittedAt: t0}); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// Heartbeat writers: each owns a disjoint slice of nodes so the
	// final per-node counts are exact.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < iterations; k++ {
				id := fmt.Sprintf("n%02d", w*(nodes/writers)+k%(nodes/writers))
				if err := d.UpdateNode(id, func(n *NodeRecord) {
					n.Departures++
					n.LastHeartbeat = n.LastHeartbeat.Add(time.Second)
				}); err != nil {
					t.Error(err)
					return
				}
				d.AppendSample(Sample{Time: t0.Add(time.Duration(k) * time.Second),
					NodeID: id, Metric: "gpu_utilization", Value: 0.5})
			}
		}(w)
	}
	// Job writers: pending -> running -> completed round trips.
	for w := 0; w < writers/2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < iterations; k++ {
				id := fmt.Sprintf("j%02d", (w*31+k)%jobs)
				_ = d.UpdateJob(id, func(j *JobRecord) {
					switch j.State {
					case JobPending:
						j.State = JobRunning
					case JobRunning:
						j.State = JobCompleted
					default:
						j.State = JobPending
					}
				})
				d.RecordAllocation(AllocationRecord{JobID: id, NodeID: "n00", DeviceID: "gpu0", Start: t0})
				_ = d.CloseAllocation(id, t0.Add(time.Minute))
			}
		}(w)
	}
	// Scan readers cross shards while the writers run.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iterations; k++ {
				_ = d.ActiveNodes()
				_ = d.JobsInState(JobPending)
				_ = d.CountJobsInState(JobRunning)
				_ = d.SamplesInRange("gpu_utilization", "", t0, t0.Add(time.Hour))
			}
		}()
	}
	// Snapshotter: consistent multi-shard acquire under fire.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 20; k++ {
			if err := json.NewEncoder(io.Discard).Encode(d.ExportState()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Every heartbeat writer touched each of its nodes iterations /
	// (nodes/writers) times; Departures must reflect every update.
	perNode := iterations / (nodes / writers)
	for i := 0; i < nodes; i++ {
		n, err := d.GetNode(fmt.Sprintf("n%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if n.Departures != perNode {
			t.Fatalf("node %s departures = %d, want %d (lost update)", n.ID, n.Departures, perNode)
		}
	}
	// State counters must agree with a full scan after the dust settles.
	for _, state := range []JobState{JobPending, JobRunning, JobCompleted} {
		scan := 0
		for _, j := range d.ListJobs() {
			if j.State == state {
				scan++
			}
		}
		if got := d.CountJobsInState(state); got != scan {
			t.Fatalf("CountJobsInState(%s) = %d, scan = %d", state, got, scan)
		}
	}
	if got := len(d.SamplesInRange("gpu_utilization", "", t0, t0.Add(time.Hour))); got != writers*iterations {
		t.Fatalf("samples = %d, want %d", got, writers*iterations)
	}
}

// TestConcurrentSaveLoadConsistency interleaves snapshots with writes
// and checks each snapshot is internally consistent (every job state
// counted exactly once — a torn cut would break the invariant).
func TestConcurrentSaveLoadConsistency(t *testing.T) {
	d := New(0)
	const jobs = 40
	for i := 0; i < jobs; i++ {
		if err := d.InsertJob(JobRecord{ID: fmt.Sprintf("j%02d", i), State: JobPending, SubmittedAt: t0}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("j%02d", k%jobs)
			_ = d.UpdateJob(id, func(j *JobRecord) {
				if j.State == JobPending {
					j.State = JobRunning
				} else {
					j.State = JobPending
				}
			})
			k++
		}
	}()
	for i := 0; i < 25; i++ {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(d.ExportState()); err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.NewDecoder(&buf).Decode(&st); err != nil {
			t.Fatal(err)
		}
		restored := New(0)
		restored.ImportState(st)
		if total := restored.CountJobsInState(JobPending) + restored.CountJobsInState(JobRunning); total != jobs {
			t.Fatalf("snapshot %d: pending+running = %d, want %d (torn snapshot)", i, total, jobs)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSampleRetentionGlobalAcrossShards: the maxSamples bound is exact
// and store-wide. Appends spread over many nodes leave exactly
// maxSamples points, the newest ones whichever node they came from, and
// a fresh node's point evicts the oldest point in the store, not its own.
func TestSampleRetentionGlobalAcrossShards(t *testing.T) {
	const bound, appended = 20, 200
	d := New(bound)
	for i := 0; i < appended; i++ {
		d.AppendSample(Sample{Time: t0.Add(time.Duration(i) * time.Second),
			NodeID: fmt.Sprintf("n%02d", i%32), Metric: "m", Value: float64(i)})
	}
	held := func() []Sample { return d.SamplesInRange("m", "", t0, t0.Add(2*time.Hour)) }
	got := held()
	if len(got) != bound {
		t.Fatalf("retained %d samples, want exactly %d", len(got), bound)
	}
	for k, s := range got {
		if want := float64(appended - bound + k); s.Value != want {
			t.Fatalf("point %d = %v, want %v (the oldest go first)", k, s.Value, want)
		}
	}
	d.AppendSample(Sample{Time: t0.Add(time.Hour), NodeID: "fresh", Metric: "m", Value: -1})
	got = held()
	if len(got) != bound || got[0].Value != appended-bound+1 || got[bound-1].NodeID != "fresh" {
		t.Fatalf("after a fresh node's point: %d held, oldest %v, newest from %q",
			len(got), got[0].Value, got[bound-1].NodeID)
	}
}

// TestSampleRingAtBound: at the retention bound an append replaces the
// store's oldest point in place — the one allocation left is the copy
// observers receive — and the points stay oldest first across the ring's
// wrap, in SamplesInRange, in ExportState and through ImportState.
func TestSampleRingAtBound(t *testing.T) {
	const bound = 64
	d := New(bound)
	next, batch := 0, make([]Sample, 1)
	point := func(i int) Sample {
		return Sample{Time: t0.Add(time.Duration(i) * time.Second), NodeID: "n1", Metric: "m", Value: float64(i)}
	}
	appendNext := func() {
		batch[0] = point(next)
		next++
		d.AppendSamples(batch)
	}
	for next < bound {
		appendNext()
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for range 100 {
			appendNext()
		}
	}); allocs != 100 {
		t.Fatalf("%v allocations per 100 appends at the bound, want 100 (one observer copy each)", allocs)
	}
	want := make([]Sample, bound)
	for i := range want {
		want[i] = point(next - bound + i)
	}
	if older, newer := d.samples.points(); len(older) == 0 || len(newer) == 0 {
		t.Fatal("the ring did not wrap; the order checks below would not cross the seam")
	}
	if got := d.SamplesInRange("m", "n1", t0, t0.Add(24*time.Hour)); !reflect.DeepEqual(got, want) {
		t.Fatalf("SamplesInRange = %v\nwant %v", got, want)
	}
	st := d.ExportState()
	if !reflect.DeepEqual(st.Samples, want) {
		t.Fatalf("ExportState samples = %v\nwant %v", st.Samples, want)
	}
	imported := New(bound)
	imported.ImportState(st)
	if got := imported.ExportState().Samples; !reflect.DeepEqual(got, want) {
		t.Fatalf("samples after ImportState = %v\nwant %v", got, want)
	}
}

// TestNewWithShardsRounding confirms the shard count rounds up to a
// power of two and one shard still behaves correctly.
func TestNewWithShardsRounding(t *testing.T) {
	if got := NewWithShards(0, 5).Shards(); got != 8 {
		t.Fatalf("shards = %d, want 8", got)
	}
	d := NewWithShards(0, 1)
	if d.Shards() != 1 {
		t.Fatalf("shards = %d, want 1", d.Shards())
	}
	d.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
	if _, err := d.GetNode("n1"); err != nil {
		t.Fatal(err)
	}
}

// TestShardCountParity runs the Store surface at sixteen shards and at
// one: ordering, filtering and the snapshot round trip must not depend
// on how the tables are partitioned.
func TestShardCountParity(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store Store
	}{
		{"sharded", New(0)},
		{"one-shard", NewWithShards(0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.store
			d.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive, RegisteredAt: t0})
			d.UpsertNode(NodeRecord{ID: "n2", Status: NodePaused, RegisteredAt: t0})
			if err := d.InsertJob(JobRecord{ID: "j1", State: JobPending, Priority: 2, SubmittedAt: t0}); err != nil {
				t.Fatal(err)
			}
			if err := d.InsertJob(JobRecord{ID: "j2", State: JobPending, Priority: 5, SubmittedAt: t0}); err != nil {
				t.Fatal(err)
			}
			if active := d.ActiveNodes(); len(active) != 1 || active[0].ID != "n1" {
				t.Fatalf("ActiveNodes = %+v", active)
			}
			q := d.JobsInState(JobPending)
			if len(q) != 2 || q[0].ID != "j2" {
				t.Fatalf("queue = %+v", q)
			}
			d.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "gpu0", Start: t0})
			if err := d.CloseAllocation("j1", t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			d.AppendSample(Sample{Time: t0, NodeID: "n1", Metric: "m", Value: 1})
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(d.ExportState()); err != nil {
				t.Fatal(err)
			}
			var st State
			if err := json.NewDecoder(&buf).Decode(&st); err != nil {
				t.Fatal(err)
			}
			restored := New(0)
			restored.ImportState(st)
			if restored.CountJobsInState(JobPending) != 2 {
				t.Fatal("jobs lost through snapshot")
			}
			if len(restored.Allocations()) != 1 {
				t.Fatal("allocations lost through snapshot")
			}
			if len(restored.SamplesInRange("m", "n1", t0, t0.Add(time.Second))) != 1 {
				t.Fatal("samples lost through snapshot")
			}
		})
	}
}
