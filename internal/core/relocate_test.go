package core

import (
	"fmt"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
)

// migrated tallies the relocations rec recorded by reason: each
// job.migrated event under its reason detail, each job.migrated_back
// under "migrate-back".
func migrated(rec *obs.Recorder) map[string]int {
	out := make(map[string]int)
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.KindJobMigrated, obs.KindJobMigratedBack:
			out[ev.Detail["reason"]]++
		}
	}
	return out
}

// The planner's tests: planBatch over a store of nodes, with no agents
// and no clock.

func planNodes() []db.NodeRecord {
	mk := func(id string, status db.NodeStatus) db.NodeRecord {
		return db.NodeRecord{
			ID: id, Status: status,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: t0.Add(-time.Hour),
		}
	}
	return []db.NodeRecord{
		mk("n-gone", db.NodeUnreachable),
		mk("n-alive", db.NodeActive),
		mk("n-other", db.NodeActive),
	}
}

func displacedJob() db.JobRecord {
	return db.JobRecord{
		ID: "j1", State: db.JobRunning, NodeID: "n-gone",
		PreferredNode: "n-gone", GPUMemMiB: 8192,
		CapabilityMajor: 7, CapabilityMinor: 0,
	}
}

// storeOf loads nodes into a store. A device a record marks allocated
// is held the store's way: by a running job that names it.
func storeOf(nodes []db.NodeRecord) db.Store {
	store := db.New(0)
	for _, n := range nodes {
		store.UpsertNode(n)
		for _, g := range n.GPUs {
			if g.Allocated {
				_ = store.InsertJob(db.JobRecord{ID: "holder-" + n.ID + "-" + g.DeviceID,
					State: db.JobRunning, NodeID: n.ID, DeviceID: g.DeviceID})
			}
		}
	}
	return store
}

// planner is a coordinator holding only what planBatch reads: the
// scheduler and the store.
func planner(strategy scheduler.Strategy, nodes []db.NodeRecord) *Coordinator {
	return &Coordinator{sched: scheduler.New(strategy), db: storeOf(nodes)}
}

// planOne plans a batch of one.
func planOne(t *testing.T, c *Coordinator, job db.JobRecord, reason migrationReason) scheduler.BatchResult {
	t.Helper()
	return c.planBatch([]db.JobRecord{job}, reason, t0)[0]
}

func TestPlanAvoidsDepartedNode(t *testing.T) {
	c := planner(nil, planNodes())
	p := planOne(t, c, displacedJob(), reasonEmergency)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.Placement.NodeID == "n-gone" {
		t.Fatal("migration landed on the departed node")
	}
}

// TestPlanStatelessRequeue: the planner reads no checkpoint, so a job
// that has none plans like any other.
func TestPlanStatelessRequeue(t *testing.T) {
	c := planner(nil, planNodes())
	p := planOne(t, c, displacedJob(), reasonEmergency)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
}

func TestPlanNoTarget(t *testing.T) {
	c := planner(nil, planNodes())
	job := displacedJob()
	job.GPUMemMiB = 999999 // nothing fits
	if p := planOne(t, c, job, reasonEmergency); p.Err == nil {
		t.Fatalf("plan = %+v, want no target", p)
	}
}

func TestMigrateBackPrefersOriginalNode(t *testing.T) {
	nodes := planNodes()
	nodes[0].Status = db.NodeActive // n-gone has returned
	c := planner(nil, nodes)
	job := displacedJob()
	job.NodeID = "n-alive" // currently running elsewhere
	job.PreferredNode = "n-gone"
	p := planOne(t, c, job, reasonMigrateBack)
	if p.Err != nil {
		t.Fatal(p.Err)
	}
	if p.Placement.NodeID != "n-gone" {
		t.Fatalf("migrate-back chose %s, want n-gone", p.Placement.NodeID)
	}
}

// batchNodes builds a departed source plus targets with gpusEach
// devices each.
func batchNodes(targets, gpusEach int) []db.NodeRecord {
	nodes := []db.NodeRecord{{
		ID: "n-gone", Status: db.NodeUnreachable,
		RegisteredAt: t0.Add(-time.Hour),
	}}
	for i := 0; i < targets; i++ {
		rec := db.NodeRecord{
			ID: fmt.Sprintf("t%d", i), Status: db.NodeActive,
			RegisteredAt: t0.Add(-time.Hour),
		}
		for g := 0; g < gpusEach; g++ {
			rec.GPUs = append(rec.GPUs, db.GPUInfo{
				DeviceID: fmt.Sprintf("gpu%d", g), Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6,
			})
		}
		nodes = append(nodes, rec)
	}
	return nodes
}

func displacedJobs(n int) []db.JobRecord {
	jobs := make([]db.JobRecord, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, db.JobRecord{
			ID: fmt.Sprintf("j%d", i), State: db.JobRunning, NodeID: "n-gone",
			GPUMemMiB: 8192, CapabilityMajor: 7, CapabilityMinor: 0,
		})
	}
	return jobs
}

func TestPlanBatchNoDoubleDeviceAssignment(t *testing.T) {
	c := planner(nil, batchNodes(2, 2))
	// 2 targets × 2 GPUs = exactly 4 slots for 4 jobs.
	seen := make(map[string]bool)
	for i, p := range c.planBatch(displacedJobs(4), reasonEmergency, t0) {
		if p.Err != nil {
			t.Fatalf("plan %d: %v", i, p.Err)
		}
		key := p.Placement.NodeID + "/" + p.Placement.DeviceID
		if seen[key] {
			t.Fatalf("device %s assigned twice in one batch", key)
		}
		seen[key] = true
	}
}

func TestPlanBatchOverflowFailsCleanly(t *testing.T) {
	c := planner(nil, batchNodes(2, 2))
	// 5 jobs, 4 slots: exactly one must find no target.
	failures := 0
	for _, p := range c.planBatch(displacedJobs(5), reasonEmergency, t0) {
		if p.Err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want exactly 1", failures)
	}
}

func TestPlanBatchEmpty(t *testing.T) {
	c := planner(nil, batchNodes(1, 1))
	if plans := c.planBatch(nil, reasonEmergency, t0); len(plans) != 0 {
		t.Fatalf("plans = %v", plans)
	}
}

// TestPlanBatchMatchesSequentialPlacement: the one-cycle batch must
// decide exactly what the loop it replaced decided — one fresh
// single-request placement per displaced job, each chosen device marked
// taken before the next — and never hand out a device twice.
func TestPlanBatchMatchesSequentialPlacement(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy func() scheduler.Strategy
	}{
		{"round-robin", func() scheduler.Strategy { return &scheduler.RoundRobin{} }},
		{"best-fit", func() scheduler.Strategy { return scheduler.BestFit{} }},
		{"least-loaded", func() scheduler.Strategy { return scheduler.LeastLoaded{} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Uneven capacity and memory so the strategies disagree;
			// six jobs for five slots so the last one overflows.
			nodes := batchNodes(3, 2)
			nodes[1].GPUs[1].Allocated = true
			nodes[2].GPUs[0].MemoryMiB = 16384
			jobs := displacedJobs(6)

			plans := planner(tc.strategy(), nodes).planBatch(jobs, reasonEmergency, t0)

			ref := scheduler.New(tc.strategy())
			seen := make(map[string]bool)
			for i, job := range jobs {
				want, werr := ref.Schedule(scheduler.Request{
					JobID: job.ID, GPUMemMiB: job.GPUMemMiB,
					Capability:  gpu.ComputeCapability{Major: job.CapabilityMajor, Minor: job.CapabilityMinor},
					LongRunning: true, AvoidNodes: []string{job.NodeID},
				}, nodes, t0)
				if (werr == nil) != (plans[i].Err == nil) {
					t.Fatalf("job %d: batch err %v, sequential err %v", i, plans[i].Err, werr)
				}
				if werr != nil {
					continue
				}
				got := plans[i].Placement
				if got.NodeID != want.NodeID || got.DeviceID != want.DeviceID {
					t.Fatalf("job %d: batch %s/%s, sequential %s/%s", i,
						got.NodeID, got.DeviceID, want.NodeID, want.DeviceID)
				}
				key := got.NodeID + "/" + got.DeviceID
				if seen[key] {
					t.Fatalf("device %s assigned twice", key)
				}
				seen[key] = true
				for ni := range nodes {
					for di := range nodes[ni].GPUs {
						if nodes[ni].ID == want.NodeID && nodes[ni].GPUs[di].DeviceID == want.DeviceID {
							nodes[ni].GPUs[di].Allocated = true
						}
					}
				}
			}
			if len(seen) != 5 {
				t.Fatalf("placed %d jobs, want 5", len(seen))
			}
		})
	}
}
