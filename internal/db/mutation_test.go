package db

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

var mutEpoch = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

// collectMutations installs a recording hook on the store.
func collectMutations(s Store) (*[]Mutation, *sync.Mutex) {
	var (
		mu   sync.Mutex
		muts []Mutation
	)
	s.SetMutationHook(func(m Mutation) {
		mu.Lock()
		muts = append(muts, m)
		mu.Unlock()
	})
	return &muts, &mu
}

// bothStores runs a subtest against the default sixteen-shard store and
// against one shard — every table behind a single lock, the paper's
// single-mutex coordinator layout — so behaviour that must not depend on
// the shard count is checked at both ends.
func bothStores(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("sharded", func(t *testing.T) { fn(t, New(0)) })
	t.Run("singlemutex", func(t *testing.T) { fn(t, NewWithShards(0, 1)) })
}

func TestMutationHookEmitsEveryWrite(t *testing.T) {
	bothStores(t, func(t *testing.T, s Store) {
		muts, _ := collectMutations(s)
		observed := 0
		defer s.AddMutationObserver(func(Mutation) { observed++ })()
		s.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
		if err := s.UpdateNode("n1", func(n *NodeRecord) { n.Status = NodePaused }); err != nil {
			t.Fatal(err)
		}
		if err := s.InsertJob(JobRecord{ID: "j1", State: JobPending}); err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateJob("j1", func(j *JobRecord) { j.State = JobRunning }); err != nil {
			t.Fatal(err)
		}
		s.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "g0", Start: mutEpoch})
		if err := s.CloseAllocation("j1", mutEpoch.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		s.AppendSample(Sample{Time: mutEpoch, NodeID: "n1", Metric: "m", Value: 1})

		// Every write is logged but the sample: soft state reaches
		// observers only.
		want := []MutationType{MutNodePut, MutNodePut, MutJobPut, MutJobPut,
			MutAllocOpen, MutAllocClose}
		if len(*muts) != len(want) || observed != len(want)+1 {
			t.Fatalf("hook saw %d mutations, observer %d, want %d and %d",
				len(*muts), observed, len(want), len(want)+1)
		}
		var last uint64
		for i, m := range *muts {
			if m.Type != want[i] {
				t.Fatalf("mutation %d is %s, want %s", i, m.Type, want[i])
			}
			if m.LSN <= last {
				t.Fatalf("LSN not monotone at %d: %d after %d", i, m.LSN, last)
			}
			last = m.LSN
		}
		if (*muts)[1].Node.Status != NodePaused {
			t.Fatalf("update after-image has status %s", (*muts)[1].Node.Status)
		}
		if (*muts)[5].Alloc.End.IsZero() {
			t.Fatal("alloc_close after-image has zero End")
		}
		if s.CurrentLSN() != last {
			t.Fatalf("CurrentLSN %d != last emitted %d", s.CurrentLSN(), last)
		}

		// Failed operations must not emit.
		n := len(*muts)
		if err := s.UpdateNode("ghost", func(*NodeRecord) {}); err == nil {
			t.Fatal("expected not-found")
		}
		if err := s.InsertJob(JobRecord{ID: "j1"}); err == nil {
			t.Fatal("expected conflict")
		}
		if len(*muts) != n {
			t.Fatalf("failed operations emitted %d records", len(*muts)-n)
		}
	})
}

func TestApplyIdempotent(t *testing.T) {
	bothStores(t, func(t *testing.T, s Store) {
		muts, _ := collectMutations(s)
		s.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
		_ = s.InsertJob(JobRecord{ID: "j1", State: JobPending})
		_ = s.UpdateJob("j1", func(j *JobRecord) { j.State = JobRunning })
		s.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "g0", Start: mutEpoch})
		_ = s.CloseAllocation("j1", mutEpoch.Add(time.Hour))
		s.AppendSample(Sample{Time: mutEpoch, NodeID: "n1", Metric: "m", Value: 1})
		s.SetMutationHook(nil)

		// Replay the full history twice over a fresh store: applying a
		// record whose effect is present must be a no-op.
		re := New(0)
		for pass := 0; pass < 2; pass++ {
			for _, m := range *muts {
				if err := re.Apply(m); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, got := s.ExportState(), re.ExportState()
		if len(got.Jobs) != 1 || got.Jobs[0].State != JobRunning {
			t.Fatalf("jobs after double replay: %+v", got.Jobs)
		}
		if len(got.Allocations) != len(want.Allocations) {
			t.Fatalf("allocations %d != %d after double replay", len(got.Allocations), len(want.Allocations))
		}
		if !got.Allocations[0].End.Equal(want.Allocations[0].End) {
			t.Fatalf("allocation end %v != %v", got.Allocations[0].End, want.Allocations[0].End)
		}
		if len(got.Samples) != 0 {
			t.Fatalf("replay produced %d samples; they are never logged", len(got.Samples))
		}
		if re.CurrentLSN() != s.CurrentLSN() {
			t.Fatalf("replayed LSN %d != source %d", re.CurrentLSN(), s.CurrentLSN())
		}
	})
}

func TestApplyAllocCloseTargetsExactEpisode(t *testing.T) {
	// A close record must only ever stamp the episode it closed — not a
	// newer open episode of the same job (the failure mode that makes
	// naive "close most recent open" replay wrong under fuzzy
	// snapshots).
	s := New(0)
	ep1 := AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "g0", Start: mutEpoch}
	ep2 := AllocationRecord{JobID: "j1", NodeID: "n2", DeviceID: "g1", Start: mutEpoch.Add(time.Hour)}
	s.RecordAllocation(ep1)
	closed1 := ep1
	closed1.End = mutEpoch.Add(30 * time.Minute)
	// Snapshot already holds ep1 closed and ep2 open; the close record
	// replays anyway (its LSN is above the watermark).
	_ = s.CloseAllocation("j1", closed1.End)
	s.RecordAllocation(ep2)
	if err := s.Apply(Mutation{LSN: s.CurrentLSN() + 1, Type: MutAllocClose, Alloc: &closed1}); err != nil {
		t.Fatal(err)
	}
	allocs := s.Allocations()
	if len(allocs) != 2 {
		t.Fatalf("allocations = %d", len(allocs))
	}
	if !allocs[0].End.Equal(closed1.End) {
		t.Fatalf("ep1 end = %v", allocs[0].End)
	}
	if !allocs[1].End.IsZero() {
		t.Fatalf("replayed close leaked onto the newer open episode: end = %v", allocs[1].End)
	}
}

func TestExportStateWatermarkBoundsContent(t *testing.T) {
	// Every mutation with LSN ≤ Watermark must be in the export (the
	// invariant snapshot truncation relies on). Hammer the store while
	// exporting concurrently and check each export against the LSNs it
	// claims to contain.
	s := New(0)
	const writers, puts = 4, 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < puts; i++ {
				s.UpsertNode(NodeRecord{ID: nodeID(g, i%64), Status: NodeActive})
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		st := s.ExportState()
		if st.Watermark > s.CurrentLSN() {
			t.Fatalf("export watermark %d above store LSN %d", st.Watermark, s.CurrentLSN())
		}
	}
	// After quiescing, a final export must contain every node touched.
	st := s.ExportState()
	if st.Watermark != s.CurrentLSN() {
		t.Fatalf("quiesced watermark %d != LSN %d", st.Watermark, s.CurrentLSN())
	}
	if len(st.Nodes) == 0 {
		t.Fatal("empty export after load")
	}
}

func nodeID(g, i int) string {
	return string(rune('a'+g)) + "-" + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10))
}

func TestImportExportRoundTrip(t *testing.T) {
	bothStores(t, func(t *testing.T, s Store) {
		s.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive,
			GPUs: []GPUInfo{{DeviceID: "g0", Model: "RTX 3090"}}})
		_ = s.InsertJob(JobRecord{ID: "j1", State: JobPending, ImageName: "img",
			Entrypoint: []string{"python", "train.py"}})
		s.RecordAllocation(AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "g0", Start: mutEpoch})
		s.AppendSample(Sample{Time: mutEpoch, NodeID: "n1", Metric: "m", Value: 0.5})

		st := s.ExportState()
		re := NewWithShards(0, 1) // restore across shard counts
		re.ImportState(st)
		if re.CurrentLSN() != st.Watermark {
			t.Fatalf("imported LSN %d != watermark %d", re.CurrentLSN(), st.Watermark)
		}
		n, err := re.GetNode("n1")
		if err != nil || len(n.GPUs) != 1 {
			t.Fatalf("node after import: %+v err=%v", n, err)
		}
		j, err := re.GetJob("j1")
		if err != nil || j.ImageName != "img" || len(j.Entrypoint) != 2 {
			t.Fatalf("job after import: %+v err=%v", j, err)
		}
		if len(re.Allocations()) != 1 {
			t.Fatalf("allocations after import: %d", len(re.Allocations()))
		}
	})
}

// exportJSON is the byte-level comparison form of a store's content.
func exportJSON(t testing.TB, s Store) string {
	t.Helper()
	b, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestAppendSamplesSoftState(t *testing.T) {
	bothStores(t, func(t *testing.T, s Store) {
		// Two nodes interleaved: consecutive points of one node share a
		// critical section.
		var points []Sample
		for i, node := range []string{"n1", "n1", "n2", "n2", "n1", "n1"} {
			points = append(points, Sample{Time: mutEpoch.Add(time.Duration(i) * time.Second),
				NodeID: node, Metric: "m", Value: float64(i)})
		}
		s.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
		muts, _ := collectMutations(s)
		var observed []Mutation
		cancel := s.AddMutationObserver(func(m Mutation) { observed = append(observed, m) })
		defer cancel()
		lsn := s.CurrentLSN()

		s.AppendSamples(points)
		s.AppendSamples(nil)

		// Never logged: no hook call, no LSN taken, watermark unmoved.
		if len(*muts) != 0 {
			t.Fatalf("hook saw %+v, want no call for samples", *muts)
		}
		if s.CurrentLSN() != lsn || s.ExportState().Watermark != lsn {
			t.Fatalf("LSN %d / watermark %d moved from %d", s.CurrentLSN(), s.ExportState().Watermark, lsn)
		}
		// Observers count accepted points, one LSN-less record each.
		if len(observed) != len(points) {
			t.Fatalf("%d observer notifications, want %d", len(observed), len(points))
		}
		for i, m := range observed {
			if m.Type != MutSamplePut || m.LSN != 0 || *m.Sample != points[i] {
				t.Fatalf("observer %d saw %+v, want an LSN-less sample_put of %+v", i, m, points[i])
			}
		}

		// A batch equals the same points appended one by one, and rides
		// ExportState / ImportState.
		single, restored := New(0), New(0)
		single.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
		for _, p := range points {
			single.AppendSample(p)
		}
		want := exportJSON(t, single)
		if got := exportJSON(t, s); got != want {
			t.Fatalf("batch store != one-by-one store:\n%s\n%s", got, want)
		}
		restored.ImportState(s.ExportState())
		if got := exportJSON(t, restored); got != want {
			t.Fatalf("imported image != live store:\n%s\n%s", got, want)
		}
	})
}

// TestApplySamplePutSkipped: a log written by a binary that still
// logged samples replays without them — never an error, no table
// touched. The record's LSN slot stays consumed (the counter rises to
// it, never past it), so no later record reuses an LSN the old log
// already holds — Follower.Offer drops LSNs it has seen as duplicates.
func TestApplySamplePutSkipped(t *testing.T) {
	point := &Sample{Time: mutEpoch, NodeID: "n1", Metric: "gpu_utilization", Value: 0.5}
	for _, tc := range []struct {
		name    string
		rec     Mutation
		wantLSN uint64
	}{
		{"above the counter", Mutation{LSN: 7, Type: MutSamplePut, Sample: point}, 7},
		{"at or below the counter", Mutation{LSN: 1, Type: MutSamplePut, Sample: point}, 2},
		{"no LSN", Mutation{Type: MutSamplePut, Sample: point}, 2},
		{"no payload", Mutation{LSN: 2, Type: MutSamplePut}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(0)
			s.UpsertNode(NodeRecord{ID: "n1", Status: NodeActive})
			s.AppendSample(Sample{Time: mutEpoch, NodeID: "n1", Metric: "kept", Value: 1})
			s.UpsertNode(NodeRecord{ID: "n2", Status: NodeActive})
			before, gen := s.ExportState(), s.NodeGeneration()
			for pass := 0; pass < 2; pass++ {
				if err := s.Apply(tc.rec); err != nil {
					t.Fatalf("Apply(%+v) = %v, want nil", tc.rec, err)
				}
			}
			after := s.ExportState()
			if s.CurrentLSN() != tc.wantLSN || after.Watermark != tc.wantLSN {
				t.Fatalf("LSN %d, watermark %d, want %d", s.CurrentLSN(), after.Watermark, tc.wantLSN)
			}
			after.Watermark = before.Watermark
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("tables changed by a skipped sample_put:\n%+v\nwant\n%+v", after, before)
			}
			if s.NodeGeneration() != gen {
				t.Fatalf("node generation moved %d -> %d", gen, s.NodeGeneration())
			}
		})
	}
}
