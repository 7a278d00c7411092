package invariant

import (
	"strings"
	"testing"
	"time"

	"gpunion/internal/db"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

// healthyStore builds a store in a consistent shape: two nodes, one
// running job with a matching open allocation, one pending job, one
// completed job with a closed episode.
func healthyStore(t *testing.T) db.Store {
	t.Helper()
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{
		ID: "n1", Status: db.NodeActive,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, Allocated: true}},
	})
	s.UpsertNode(db.NodeRecord{
		ID: "n2", Status: db.NodeActive,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576}},
	})
	mustInsert(t, s, db.JobRecord{ID: "j-run", State: db.JobRunning,
		NodeID: "n1", DeviceID: "gpu0", ImageName: "img", SubmittedAt: t0, StartedAt: t0})
	mustInsert(t, s, db.JobRecord{ID: "j-pend", State: db.JobPending,
		ImageName: "img", SubmittedAt: t0})
	mustInsert(t, s, db.JobRecord{ID: "j-done", State: db.JobCompleted,
		NodeID: "n2", DeviceID: "gpu0", ImageName: "img", SubmittedAt: t0})
	s.RecordAllocation(db.AllocationRecord{JobID: "j-run", NodeID: "n1", DeviceID: "gpu0", Start: t0})
	s.RecordAllocation(db.AllocationRecord{JobID: "j-done", NodeID: "n2", DeviceID: "gpu0",
		Start: t0.Add(-time.Hour), End: t0.Add(-time.Minute)})
	return s
}

func mustInsert(t *testing.T, s db.Store, j db.JobRecord) {
	t.Helper()
	if err := s.InsertJob(j); err != nil {
		t.Fatal(err)
	}
}

func rules(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Rule)
		b.WriteString(";")
	}
	return b.String()
}

func wantRule(t *testing.T, vs []Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("expected a %s violation, got: %v", rule, vs)
}

func TestInvariantCleanStorePasses(t *testing.T) {
	s := healthyStore(t)
	c := NewChecker()
	if vs := c.Check(s); len(vs) != 0 {
		t.Fatalf("healthy store flagged: %s", rules(vs))
	}
}

func TestInvariantDoubleAllocation(t *testing.T) {
	s := healthyStore(t)
	// Sabotage: point a second running job at j-run's device.
	mustInsert(t, s, db.JobRecord{ID: "j-dup", State: db.JobRunning,
		NodeID: "n1", DeviceID: "gpu0", ImageName: "img", SubmittedAt: t0})
	s.RecordAllocation(db.AllocationRecord{JobID: "j-dup", NodeID: "n1", DeviceID: "gpu0", Start: t0})
	wantRule(t, NewChecker().Check(s), "device-double-allocation")
}

func TestInvariantUnknownNode(t *testing.T) {
	s := healthyStore(t)
	_ = s.UpdateJob("j-run", func(j *db.JobRecord) { j.NodeID = "ghost" })
	vs := NewChecker().Check(s)
	wantRule(t, vs, "job-node-referential")
}

func TestInvariantRunningOnDeadNode(t *testing.T) {
	s := healthyStore(t)
	_ = s.UpdateNode("n1", func(n *db.NodeRecord) { n.Status = db.NodeDeparted })
	wantRule(t, NewChecker().Check(s), "running-node-live")
}

func TestInvariantDeviceMarkedFree(t *testing.T) {
	s := healthyStore(t)
	_ = s.UpdateNode("n1", func(n *db.NodeRecord) { n.GPUs[0].Allocated = false })
	wantRule(t, NewChecker().Check(s), "running-device-allocated")
}

func TestInvariantPendingHoldsPlacement(t *testing.T) {
	s := healthyStore(t)
	_ = s.UpdateJob("j-pend", func(j *db.JobRecord) { j.NodeID = "n2" })
	wantRule(t, NewChecker().Check(s), "pending-detached")
}

func TestInvariantOrphanAllocation(t *testing.T) {
	s := healthyStore(t)
	s.RecordAllocation(db.AllocationRecord{JobID: "ghost-job", NodeID: "n1", DeviceID: "gpu0", Start: t0})
	wantRule(t, NewChecker().Check(s), "alloc-referential")
}

func TestInvariantTerminalJobWithOpenEpisode(t *testing.T) {
	s := healthyStore(t)
	// Complete the job without closing its allocation — the leak the
	// checker exists to catch.
	_ = s.UpdateJob("j-run", func(j *db.JobRecord) { j.State = db.JobCompleted })
	wantRule(t, NewChecker().Check(s), "alloc-matches-job")
}

func TestInvariantRunningWithoutEpisode(t *testing.T) {
	s := healthyStore(t)
	if err := s.CloseAllocation("j-run", t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	wantRule(t, NewChecker().Check(s), "alloc-matches-job")
}

func TestInvariantLSNMonotonic(t *testing.T) {
	s := healthyStore(t)
	c := NewChecker()
	if vs := c.Check(s); len(vs) != 0 {
		t.Fatalf("first check: %s", rules(vs))
	}
	// A fresh, emptier store models a recovery that lost history: its
	// LSN sits below the high-water mark the checker remembers.
	s2 := db.New(0)
	s2.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive})
	wantRule(t, c.Check(s2), "lsn-monotonic")
}

func TestInvariantStateCountsAcrossImport(t *testing.T) {
	s := healthyStore(t)
	// Round-trip through export/import must keep the per-state counters
	// in sync with the scan.
	s2 := db.New(0)
	s2.ImportState(s.ExportState())
	if vs := NewChecker().Check(s2); len(vs) != 0 {
		t.Fatalf("imported store flagged: %s", rules(vs))
	}
}

func TestCheckEquivalence(t *testing.T) {
	s := healthyStore(t)
	st := s.ExportState()
	if vs := CheckEquivalence(st, st); len(vs) != 0 {
		t.Fatalf("identical states flagged: %v", vs)
	}
	mut := s.ExportState()
	mut.Jobs[0].State = db.JobFailed
	wantRule(t, CheckEquivalence(st, mut), "recovery-equivalence")

	back := s.ExportState()
	back.Watermark = 0
	if st.Watermark > 0 {
		wantRule(t, CheckEquivalence(st, back), "recovery-equivalence")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "r", Detail: "d"}
	if v.String() != "r: d" {
		t.Fatalf("String() = %q", v.String())
	}
}
