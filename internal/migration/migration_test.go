package migration

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/netsim"
	"gpunion/internal/scheduler"
	"gpunion/internal/storage"
)

var now = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func testNodes() []db.NodeRecord {
	mk := func(id string, status db.NodeStatus) db.NodeRecord {
		return db.NodeRecord{
			ID: id, Status: status,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: now.Add(-time.Hour),
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

// storeOf seeds a store with the given node set.
func storeOf(nodes []db.NodeRecord) db.Store {
	store := db.New(0)
	for _, n := range nodes {
		store.UpsertNode(n)
	}
	return store
}

func newEngine(withNet bool, nodes []db.NodeRecord) (*Engine, *checkpoint.Store, *netsim.Network) {
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	sched := scheduler.New(nil)
	var net *netsim.Network
	storageNode := ""
	if withNet {
		net = netsim.New(10 * netsim.Gbps)
		for _, n := range []string{"storage", "n-alive", "n-other", "n-gone"} {
			net.AddNode(netsim.NodeLink{Name: n, Access: netsim.Gbps, Latency: 200 * time.Microsecond})
		}
		storageNode = "storage"
	}
	return New(sched, storeOf(nodes), ckpts, net, storageNode), ckpts, net
}

func saveCheckpoints(t *testing.T, ckpts *checkpoint.Store, jobID string, fullBytes int64, steps ...int64) {
	t.Helper()
	for i, step := range steps {
		ck := checkpoint.Checkpoint{
			JobID: jobID, Seq: i + 1, Bytes: fullBytes,
			Progress:  checkpoint.Progress{Step: step},
			Mechanism: "alc", CreatedAt: now,
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
func planOne(e *Engine, job db.JobRecord, reason Reason) (Plan, error) {
	item := e.PlanBatch([]db.JobRecord{job}, reason, now)[0]
	return item.Plan, item.Err
}

func TestPlanAvoidsDepartedNode(t *testing.T) {
	e, ckpts, _ := newEngine(false, testNodes())
	saveCheckpoints(t, ckpts, "j1", 1000, 500)
	p, err := planOne(e, displacedJob(), ReasonEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if p.Placement.NodeID == "n-gone" {
		t.Fatal("migration landed on the departed node")
	}
	if !p.HasCheckpoint || p.RestoreStep != 500 || p.RestoreSeq != 1 {
		t.Fatalf("plan = %+v", p)
	}
}

func TestPlanStatelessRequeue(t *testing.T) {
	e, _, _ := newEngine(false, testNodes())
	p, err := planOne(e, displacedJob(), ReasonEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if p.HasCheckpoint || p.RestoreStep != 0 || p.TransferBytes != 0 {
		t.Fatalf("stateless plan = %+v", p)
	}
}

func TestPlanTransferBytesSumChain(t *testing.T) {
	e, ckpts, _ := newEngine(false, testNodes())
	saveCheckpoints(t, ckpts, "j1", 1000, 100, 200, 300)
	p, err := planOne(e, displacedJob(), ReasonScheduled)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1000 + 100 + 100) // full + two increments
	if p.TransferBytes != want {
		t.Fatalf("TransferBytes = %d, want %d", p.TransferBytes, want)
	}
	if p.RestoreStep != 300 {
		t.Fatalf("RestoreStep = %d", p.RestoreStep)
	}
}

func TestPlanNoTarget(t *testing.T) {
	e, _, _ := newEngine(false, testNodes())
	job := displacedJob()
	job.GPUMemMiB = 999999 // nothing fits
	_, err := planOne(e, job, ReasonEmergency)
	if !errors.Is(err, ErrNoTarget) {
		t.Fatalf("err = %v, want ErrNoTarget", err)
	}
}

func TestPlanWithNetworkModelsTransferTime(t *testing.T) {
	e, ckpts, net := newEngine(true, testNodes())
	// 1 GB checkpoint on a 1 Gbps access link ≈ 8 s.
	saveCheckpoints(t, ckpts, "j1", 1_000_000_000, 500)
	p, err := planOne(e, displacedJob(), ReasonEmergency)
	if err != nil {
		t.Fatal(err)
	}
	if p.TransferTime < 7*time.Second || p.TransferTime > 10*time.Second {
		t.Fatalf("TransferTime = %v, want ≈8 s", p.TransferTime)
	}
	if net.Accountant().TotalBytes(netsim.TrafficMigration) != p.TransferBytes {
		t.Fatal("migration traffic not accounted")
	}
}

func TestMigrateBackPrefersOriginalNode(t *testing.T) {
	nodes := testNodes()
	nodes[0].Status = db.NodeActive // n-gone has returned
	e, _, _ := newEngine(false, nodes)
	job := displacedJob()
	job.NodeID = "n-alive" // currently running elsewhere
	job.PreferredNode = "n-gone"
	p, err := planOne(e, job, ReasonMigrateBack)
	if err != nil {
		t.Fatal(err)
	}
	if p.Placement.NodeID != "n-gone" {
		t.Fatalf("migrate-back chose %s, want n-gone", p.Placement.NodeID)
	}
}

func TestStatsAccounting(t *testing.T) {
	e, _, _ := newEngine(false, testNodes())
	e.RecordAttempt(ReasonScheduled)
	e.RecordAttempt(ReasonScheduled)
	e.RecordSuccess(ReasonScheduled, 30*time.Second)
	e.RecordFailure(ReasonScheduled)
	e.RecordAttempt(ReasonEmergency)
	e.RecordSuccess(ReasonEmergency, 2*time.Minute)

	s := e.Stats()
	if got := s.RateWithin(ReasonScheduled, time.Hour); got != 0.5 {
		t.Fatalf("scheduled success rate = %v", got)
	}
	if got := s.RateWithin(ReasonEmergency, time.Hour); got != 1.0 {
		t.Fatalf("emergency success rate = %v", got)
	}
	if got := s.RateWithin(ReasonTemporary, time.Hour); got != 0 {
		t.Fatalf("unattempted success rate = %v", got)
	}
	if got := s.MeanDowntime(ReasonScheduled); got != 30*time.Second {
		t.Fatalf("mean downtime = %v", got)
	}
}

func TestStatsCloneIsolated(t *testing.T) {
	e, _, _ := newEngine(false, testNodes())
	e.RecordAttempt(ReasonScheduled)
	snap := e.Stats()
	snap.Attempts[ReasonScheduled] = 999
	if e.Stats().Attempts[ReasonScheduled] != 1 {
		t.Fatal("Stats snapshot aliases engine state")
	}
}
