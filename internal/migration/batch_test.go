package migration

import (
	"fmt"
	"testing"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/scheduler"
	"gpunion/internal/storage"
)

// batchNodes builds a departed source plus targets with capacity GPUs
// each.
func batchNodes(targets, gpusEach int) []db.NodeRecord {
	nodes := []db.NodeRecord{{
		ID: "n-gone", Status: db.NodeUnreachable,
		RegisteredAt: now.Add(-time.Hour),
	}}
	for i := 0; i < targets; i++ {
		rec := db.NodeRecord{
			ID: fmt.Sprintf("t%d", i), Status: db.NodeActive,
			RegisteredAt: now.Add(-time.Hour),
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

func TestPlanBatchNoDoubleDeviceAssignment(t *testing.T) {
	e, ckpts, _ := newEngine(false, batchNodes(2, 2))
	for i := 0; i < 4; i++ {
		saveCheckpoints(t, ckpts, fmt.Sprintf("j%d", i), 1000, 100)
	}
	// 2 targets × 2 GPUs = exactly 4 slots for 4 jobs.
	items := e.PlanBatch(displacedJobs(4), ReasonEmergency, now)
	seen := make(map[string]bool)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		key := item.Plan.Placement.NodeID + "/" + item.Plan.Placement.DeviceID
		if seen[key] {
			t.Fatalf("device %s assigned twice in one batch", key)
		}
		seen[key] = true
	}
}

func TestPlanBatchOverflowFailsCleanly(t *testing.T) {
	e, _, _ := newEngine(false, batchNodes(2, 2))
	// 5 jobs, 4 slots: exactly one must fail with ErrNoTarget.
	items := e.PlanBatch(displacedJobs(5), ReasonEmergency, now)
	failures := 0
	for _, item := range items {
		if item.Err != nil {
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want exactly 1", failures)
	}
}

// newBatchNetEngine builds an engine over a LAN with the batch test's
// topology registered and targets nodes of gpusEach devices to plan onto.
func newBatchNetEngine(targets, gpusEach int) (*Engine, *checkpoint.Store, *netsim.Network) {
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	sched := scheduler.New(nil)
	net := netsim.New(10 * netsim.Gbps)
	net.AddNode(netsim.NodeLink{Name: "storage", Access: 10 * netsim.Gbps, Latency: 200 * time.Microsecond})
	net.AddNode(netsim.NodeLink{Name: "n-gone", Access: netsim.Gbps, Latency: 200 * time.Microsecond})
	for i := 0; i < targets; i++ {
		net.AddNode(netsim.NodeLink{Name: fmt.Sprintf("t%d", i), Access: netsim.Gbps, Latency: 200 * time.Microsecond})
	}
	return New(sched, storeOf(batchNodes(targets, gpusEach)), ckpts, net, "storage"), ckpts, net
}

func TestPlanBatchTransfersOverlap(t *testing.T) {
	e, ckpts, net := newBatchNetEngine(1, 2)
	// Two jobs with 1 GB chains, both restored to the same single
	// target node: their flows share the 1 Gbps downlink, so each takes
	// about twice the solo time.
	for i := 0; i < 2; i++ {
		saveCheckpoints(t, ckpts, fmt.Sprintf("j%d", i), 1_000_000_000, 100)
	}
	items := e.PlanBatch(displacedJobs(2), ReasonEmergency, now)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
	}
	solo := 8 * time.Second // 1 GB at 1 Gbps
	slower := items[0].Plan.TransferTime
	if items[1].Plan.TransferTime > slower {
		slower = items[1].Plan.TransferTime
	}
	if slower < time.Duration(1.5*float64(solo)) {
		t.Fatalf("contended transfer = %v, want ≈2× solo (%v)", slower, solo)
	}
	// No flow leaked: a fresh flow into t0 gets the whole downlink.
	f, err := net.StartFlow("storage", "t0", 1, netsim.TrafficCheckpoint, now)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != netsim.Gbps {
		t.Fatalf("flows leaked: a fresh flow into t0 got %v, want the whole 1 Gbps", f.Rate)
	}
}

func TestPlanBatchStatelessJobsSkipTransfers(t *testing.T) {
	e, _, net := newBatchNetEngine(2, 2)
	items := e.PlanBatch(displacedJobs(3), ReasonEmergency, now)
	for i, item := range items {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		if item.Plan.HasCheckpoint || item.Plan.TransferTime != 0 {
			t.Fatalf("stateless plan %d = %+v", i, item.Plan)
		}
	}
	if net.Accountant().TotalBytes(netsim.TrafficMigration) != 0 {
		t.Fatal("stateless batch moved bytes")
	}
}

func TestPlanBatchEmpty(t *testing.T) {
	e, _, _ := newEngine(false, batchNodes(1, 1))
	if items := e.PlanBatch(nil, ReasonEmergency, now); len(items) != 0 {
		t.Fatalf("items = %v", items)
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

			e := New(scheduler.New(tc.strategy()), storeOf(nodes),
				checkpoint.NewStore(storage.NewMemStore(0)), nil, "")
			items := e.PlanBatch(jobs, ReasonEmergency, now)

			ref := scheduler.New(tc.strategy())
			seen := make(map[string]bool)
			for i, job := range jobs {
				want, werr := ref.Schedule(scheduler.Request{
					JobID: job.ID, GPUMemMiB: job.GPUMemMiB,
					Capability:  gpu.ComputeCapability{Major: job.CapabilityMajor, Minor: job.CapabilityMinor},
					LongRunning: true, AvoidNodes: []string{job.NodeID},
				}, nodes, now)
				if (werr == nil) != (items[i].Err == nil) {
					t.Fatalf("job %d: batch err %v, sequential err %v", i, items[i].Err, werr)
				}
				if werr != nil {
					continue
				}
				got := items[i].Plan.Placement
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
