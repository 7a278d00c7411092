package core

import (
	"fmt"
	"testing"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/storage"
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

// The planner's tests: planBatch over a store of nodes, a checkpoint
// store and an optional LAN model, with no agents and no clock.

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
		ID: "j1", State: db.JobMigrating, NodeID: "n-gone",
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
// scheduler, the store, the checkpoint store and the LAN model.
func planner(strategy scheduler.Strategy, nodes []db.NodeRecord, net *netsim.Network) *Coordinator {
	c := &Coordinator{
		sched: scheduler.New(strategy),
		db:    storeOf(nodes),
		ckpts: checkpoint.NewStore(storage.NewMemStore(0)),
	}
	if net != nil {
		c.cfg.Net, c.cfg.StorageNode = net, "storage"
	}
	return c
}

// lanOf builds a LAN with a 10 Gbps storage node and a 1 Gbps access
// link per named node.
func lanOf(storageAccess netsim.Bandwidth, nodes ...string) *netsim.Network {
	net := netsim.New(10 * netsim.Gbps)
	net.AddNode(netsim.NodeLink{Name: "storage", Access: storageAccess, Latency: 200 * time.Microsecond})
	for _, n := range nodes {
		net.AddNode(netsim.NodeLink{Name: n, Access: netsim.Gbps, Latency: 200 * time.Microsecond})
	}
	return net
}

func saveCheckpoints(t *testing.T, ckpts *checkpoint.Store, jobID string, fullBytes int64, steps ...int64) {
	t.Helper()
	for i, step := range steps {
		ck := checkpoint.Checkpoint{
			JobID: jobID, Seq: i + 1, Bytes: fullBytes,
			Progress:  checkpoint.Progress{Step: step},
			Mechanism: "alc", CreatedAt: t0,
		}
		if i > 0 {
			ck.Incremental = true
			ck.BaseSeq = i
			ck.Bytes = fullBytes / 10
		}
		if err := ckpts.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
}

// planOne plans a batch of one.
func planOne(t *testing.T, c *Coordinator, job db.JobRecord, reason migrationReason) migrationPlan {
	t.Helper()
	return c.planBatch([]db.JobRecord{job}, reason, t0)[0]
}

func TestPlanAvoidsDepartedNode(t *testing.T) {
	c := planner(nil, planNodes(), nil)
	saveCheckpoints(t, c.ckpts, "j1", 1000, 500)
	p := planOne(t, c, displacedJob(), reasonEmergency)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.placement.NodeID == "n-gone" {
		t.Fatal("migration landed on the departed node")
	}
	if p.restoreStep != 500 || p.restoreSeq != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlanStatelessRequeue(t *testing.T) {
	c := planner(nil, planNodes(), nil)
	p := planOne(t, c, displacedJob(), reasonEmergency)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.restoreSeq != 0 || p.restoreStep != 0 || p.transferBytes != 0 {
		t.Fatalf("stateless plan = %+v", p)
	}
}

func TestPlanTransferBytesSumChain(t *testing.T) {
	c := planner(nil, planNodes(), nil)
	saveCheckpoints(t, c.ckpts, "j1", 1000, 100, 200, 300)
	p := planOne(t, c, displacedJob(), reasonScheduled)
	if p.err != nil {
		t.Fatal(p.err)
	}
	want := int64(1000 + 100 + 100) // full + two increments
	if p.transferBytes != want {
		t.Fatalf("transferBytes = %d, want %d", p.transferBytes, want)
	}
	if p.restoreStep != 300 {
		t.Fatalf("restoreStep = %d", p.restoreStep)
	}
}

func TestPlanNoTarget(t *testing.T) {
	c := planner(nil, planNodes(), nil)
	job := displacedJob()
	job.GPUMemMiB = 999999 // nothing fits
	if p := planOne(t, c, job, reasonEmergency); p.err == nil {
		t.Fatalf("plan = %+v, want no target", p)
	}
}

func TestPlanWithNetworkModelsTransferTime(t *testing.T) {
	net := lanOf(netsim.Gbps, "n-alive", "n-other", "n-gone")
	c := planner(nil, planNodes(), net)
	// 1 GB checkpoint on a 1 Gbps access link ≈ 8 s.
	saveCheckpoints(t, c.ckpts, "j1", 1_000_000_000, 500)
	p := planOne(t, c, displacedJob(), reasonEmergency)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.transferTime < 7*time.Second || p.transferTime > 10*time.Second {
		t.Fatalf("transferTime = %v, want ≈8 s", p.transferTime)
	}
	if net.Accountant().TotalBytes(netsim.TrafficMigration) != p.transferBytes {
		t.Fatal("migration traffic not accounted")
	}
}

func TestMigrateBackPrefersOriginalNode(t *testing.T) {
	nodes := planNodes()
	nodes[0].Status = db.NodeActive // n-gone has returned
	c := planner(nil, nodes, nil)
	job := displacedJob()
	job.NodeID = "n-alive" // currently running elsewhere
	job.PreferredNode = "n-gone"
	p := planOne(t, c, job, reasonMigrateBack)
	if p.err != nil {
		t.Fatal(p.err)
	}
	if p.placement.NodeID != "n-gone" {
		t.Fatalf("migrate-back chose %s, want n-gone", p.placement.NodeID)
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
			ID: fmt.Sprintf("j%d", i), State: db.JobMigrating, NodeID: "n-gone",
			GPUMemMiB: 8192, CapabilityMajor: 7, CapabilityMinor: 0,
		})
	}
	return jobs
}

// batchLAN is the batch tests' LAN: storage, the departed source and
// targets t0…t(n-1).
func batchLAN(targets int) *netsim.Network {
	names := []string{"n-gone"}
	for i := 0; i < targets; i++ {
		names = append(names, fmt.Sprintf("t%d", i))
	}
	return lanOf(10*netsim.Gbps, names...)
}

func TestPlanBatchNoDoubleDeviceAssignment(t *testing.T) {
	c := planner(nil, batchNodes(2, 2), nil)
	for i := 0; i < 4; i++ {
		saveCheckpoints(t, c.ckpts, fmt.Sprintf("j%d", i), 1000, 100)
	}
	// 2 targets × 2 GPUs = exactly 4 slots for 4 jobs.
	seen := make(map[string]bool)
	for i, p := range c.planBatch(displacedJobs(4), reasonEmergency, t0) {
		if p.err != nil {
			t.Fatalf("plan %d: %v", i, p.err)
		}
		key := p.placement.NodeID + "/" + p.placement.DeviceID
		if seen[key] {
			t.Fatalf("device %s assigned twice in one batch", key)
		}
		seen[key] = true
	}
}

func TestPlanBatchOverflowFailsCleanly(t *testing.T) {
	c := planner(nil, batchNodes(2, 2), nil)
	// 5 jobs, 4 slots: exactly one must find no target.
	failures := 0
	for _, p := range c.planBatch(displacedJobs(5), reasonEmergency, t0) {
		if p.err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want exactly 1", failures)
	}
}

func TestPlanBatchTransfersOverlap(t *testing.T) {
	net := batchLAN(1)
	c := planner(nil, batchNodes(1, 2), net)
	// Two jobs with 1 GB chains, both restored to the same single
	// target node: their flows share the 1 Gbps downlink, so each takes
	// about twice the solo time.
	for i := 0; i < 2; i++ {
		saveCheckpoints(t, c.ckpts, fmt.Sprintf("j%d", i), 1_000_000_000, 100)
	}
	plans := c.planBatch(displacedJobs(2), reasonEmergency, t0)
	for i, p := range plans {
		if p.err != nil {
			t.Fatalf("plan %d: %v", i, p.err)
		}
	}
	solo := 8 * time.Second // 1 GB at 1 Gbps
	slower := max(plans[0].transferTime, plans[1].transferTime)
	if slower < time.Duration(1.5*float64(solo)) {
		t.Fatalf("contended transfer = %v, want ≈2× solo (%v)", slower, solo)
	}
	// No flow leaked: a fresh flow into t0 gets the whole downlink.
	f, err := net.StartFlow("storage", "t0", 1, netsim.TrafficCheckpoint, t0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != netsim.Gbps {
		t.Fatalf("flows leaked: a fresh flow into t0 got %v, want the whole 1 Gbps", f.Rate)
	}
}

func TestPlanBatchStatelessJobsSkipTransfers(t *testing.T) {
	net := batchLAN(2)
	c := planner(nil, batchNodes(2, 2), net)
	for i, p := range c.planBatch(displacedJobs(3), reasonEmergency, t0) {
		if p.err != nil {
			t.Fatalf("plan %d: %v", i, p.err)
		}
		if p.restoreSeq != 0 || p.transferTime != 0 {
			t.Fatalf("stateless plan %d = %+v", i, p)
		}
	}
	if net.Accountant().TotalBytes(netsim.TrafficMigration) != 0 {
		t.Fatal("stateless batch moved bytes")
	}
}

func TestPlanBatchEmpty(t *testing.T) {
	c := planner(nil, batchNodes(1, 1), nil)
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

			plans := planner(tc.strategy(), nodes, nil).planBatch(jobs, reasonEmergency, t0)

			ref := scheduler.New(tc.strategy())
			seen := make(map[string]bool)
			for i, job := range jobs {
				want, werr := ref.Schedule(scheduler.Request{
					JobID: job.ID, GPUMemMiB: job.GPUMemMiB,
					Capability:  gpu.ComputeCapability{Major: job.CapabilityMajor, Minor: job.CapabilityMinor},
					LongRunning: true, AvoidNodes: []string{job.NodeID},
				}, nodes, t0)
				if (werr == nil) != (plans[i].err == nil) {
					t.Fatalf("job %d: batch err %v, sequential err %v", i, plans[i].err, werr)
				}
				if werr != nil {
					continue
				}
				got := plans[i].placement
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
