package core

import (
	"maps"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/migration"
	"gpunion/internal/monitor"
	"gpunion/internal/netsim"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// netRig is a rig whose coordinator models LAN transfer timing, so
// migrations have real (simulated) downtime.
type netRig struct {
	clock *simclock.Sim
	coord *Coordinator
	ckpts *checkpoint.Store
	net   *netsim.Network
	ags   map[string]*agent.Agent
}

func newNetRig(t *testing.T) *netRig {
	t.Helper()
	r := newEmptyNetRig(t, nil)
	r.join(t, "n1", 1)
	r.join(t, "n2", 1)
	return r
}

func newEmptyNetRig(t *testing.T, strategy scheduler.Strategy) *netRig {
	t.Helper()
	clock := simclock.NewSim(t0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	net := netsim.New(10 * netsim.Gbps)
	net.AddNode(netsim.NodeLink{Name: "storage", Access: 10 * netsim.Gbps, Latency: 100 * time.Microsecond})
	coord, err := New(Config{
		HeartbeatInterval: 10 * time.Second,
		Strategy:          strategy,
		Net:               net,
		StorageNode:       "storage",
	}, clock, db.New(0), ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return &netRig{clock: clock, coord: coord, ckpts: ckpts, net: net, ags: map[string]*agent.Agent{}}
}

// join attaches a beating node with that many RTX 3090s on a 1 Gbps
// access link.
func (r *netRig) join(t *testing.T, id string, gpus int) {
	t.Helper()
	r.net.AddNode(netsim.NodeLink{Name: id, Access: netsim.Gbps, Latency: 250 * time.Microsecond})
	devices := make([]gpu.Spec, gpus)
	for i := range devices {
		devices[i] = gpu.RTX3090
	}
	ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, r.clock, devices, r.ckpts, nil)
	ag.SetEndpoints([]agent.Endpoint{{Link: linkTo(r.coord, ag)}})
	t.Cleanup(ag.Stop)
	if _, err := ag.Join("inproc://"+id, 1<<30); err != nil {
		t.Fatal(err)
	}
	r.ags[id] = ag
}

// bigStateSpec trains with ~2 GB of state so restore transfers take
// seconds on the modelled 1 Gbps links.
func bigStateSpec() workload.TrainingSpec {
	spec := workload.SmallTransformer
	spec.StateBytes = 2_000_000_000
	return spec
}

func TestMigrationWaitsForCheckpointTransfer(t *testing.T) {
	r := newNetRig(t)
	spec := bigStateSpec()
	id, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 60, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.coord.JobStatus(id)
	home := st.NodeID
	r.clock.Advance(2 * time.Minute) // at least one checkpoint

	r.ags[home].Depart(api.DepartScheduled, time.Minute)

	// Immediately after the departure the job is still migrating: its
	// ~2 GB chain is crossing the LAN (≈16 s at 1 Gbps).
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobMigrating {
		t.Fatalf("state right after departure = %s, want migrating", st.State)
	}
	// After the transfer window it runs on the other node.
	r.clock.Advance(time.Minute)
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID == home {
		t.Fatalf("after transfer: %+v", st)
	}
}

func TestKillWhileCheckpointInFlight(t *testing.T) {
	r := newNetRig(t)
	spec := bigStateSpec()
	id, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 60, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.coord.JobStatus(id)
	home := st.NodeID
	r.clock.Advance(2 * time.Minute)

	r.ags[home].Depart(api.DepartScheduled, time.Minute)
	// Mid-transfer, the user kills the job.
	if err := r.coord.KillJob(id); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(time.Minute) // the delayed relaunch fires — and must stand down

	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobKilled {
		t.Fatalf("state = %s, want killed to stick through the in-flight migration", st.State)
	}
	for id2, ag := range r.ags {
		if n := len(ag.Status().RunningJobs); n != 0 {
			t.Fatalf("node %s runs %d jobs after the kill", id2, n)
		}
	}
}

// TestDepartureDuringDrainTransferPlansOnce: a node draining
// predictively departs while its job's checkpoint is still crossing the
// LAN. The departure moves only what still runs there; the migrating
// job keeps the plan it has, so it is planned, attempted and relaunched
// once.
func TestDepartureDuringDrainTransferPlansOnce(t *testing.T) {
	r := newEmptyNetRig(t, nil)
	r.join(t, "sick", 1)
	spec := bigStateSpec()
	id, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 60, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.join(t, "t1", 1)
	r.clock.Advance(2 * time.Minute) // at least one checkpoint

	sick := r.ags["sick"]
	for i := 0; i < 10; i++ {
		if st, _ := r.coord.JobStatus(id); st.State == db.JobMigrating {
			break
		}
		r.clock.Advance(time.Second)
		req := sick.HeartbeatRequest()
		req.HealthEvents = []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, Value: 99}}
		if _, err := r.coord.Heartbeat(req); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := r.coord.JobStatus(id); st.State != db.JobMigrating {
		t.Fatalf("job = %+v, want migrating off the drained node", st)
	}
	sick.Depart(api.DepartScheduled, time.Minute) // mid-transfer
	r.clock.Advance(2 * time.Minute)

	if st, _ := r.coord.JobStatus(id); st.State != db.JobRunning || st.NodeID != "t1" {
		t.Fatalf("after the transfer: %+v, want running on t1", st)
	}
	stats := r.coord.Migration().Stats()
	want := map[migration.Reason]int{migration.ReasonPredictive: 1}
	if !maps.Equal(stats.Attempts, want) || !maps.Equal(stats.Successes, want) {
		t.Fatalf("attempts %v, successes %v; want %v for both", stats.Attempts, stats.Successes, want)
	}
}

func TestMigrationDowntimeRecordedFromTransfer(t *testing.T) {
	r := newNetRig(t)
	spec := bigStateSpec()
	_, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 60, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var home string
	for id, ag := range r.ags {
		if len(ag.Status().RunningJobs) == 1 {
			home = id
		}
	}
	r.clock.Advance(2 * time.Minute)
	r.ags[home].Depart(api.DepartScheduled, time.Minute)
	r.clock.Advance(time.Minute)

	stats := r.coord.Migration().Stats()
	// A ~2 GB chain at 1 Gbps is ≥ 16 s of downtime.
	if d := stats.MeanDowntime("scheduled"); d < 10*time.Second {
		t.Fatalf("mean downtime = %v, want the transfer to dominate", d)
	}
}

// TestPredictiveDrainPlansOneBatch: a node that crosses the unhealthy
// threshold with two running jobs drains both in one planning batch.
// With restore transfers taking seconds, nothing commits between two
// single plans — planned one at a time, both jobs are sent to the same
// free device and the second relaunch bounces. (Best-fit, because it
// has no cursor: asked twice about an unchanged store it answers the
// same device twice, where round-robin would happen to move on.)
func TestPredictiveDrainPlansOneBatch(t *testing.T) {
	r := newEmptyNetRig(t, scheduler.BestFit{})
	r.join(t, "sick", 2)
	spec := bigStateSpec()
	var jobs []string
	for i := 0; i < 2; i++ {
		id, err := r.coord.SubmitJob(api.SubmitJobRequest{
			User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
			GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 60, Training: &spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, id)
	}
	r.join(t, "t1", 1)
	r.join(t, "t2", 1)
	r.clock.Advance(2 * time.Minute) // at least one checkpoint each

	sick := r.ags["sick"]
	for i := 0; i < 10; i++ {
		if rec, _ := r.coord.db.GetNode("sick"); rec.HealthScore() < monitor.UnhealthyBelow {
			break
		}
		r.clock.Advance(time.Second)
		req := sick.HeartbeatRequest()
		req.HealthEvents = []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, Value: 99}}
		if _, err := r.coord.Heartbeat(req); err != nil {
			t.Fatal(err)
		}
	}
	if rec, _ := r.coord.db.GetNode("sick"); rec.HealthScore() >= monitor.UnhealthyBelow {
		t.Fatalf("node never crossed the unhealthy threshold: %v", rec.HealthScore())
	}
	for _, id := range jobs {
		if st, _ := r.coord.JobStatus(id); st.State != db.JobMigrating {
			t.Fatalf("%s right after the crossing = %s, want migrating (its chain is on the LAN)", id, st.State)
		}
	}
	r.clock.Advance(2 * time.Minute) // both ~2 GB transfers land

	devices := map[string]bool{}
	for _, id := range jobs {
		st, _ := r.coord.JobStatus(id)
		if st.State != db.JobRunning || st.NodeID == "sick" {
			t.Fatalf("%s after the drain: %+v", id, st)
		}
		devices[st.NodeID+"/"+st.DeviceID] = true
	}
	if len(devices) != 2 {
		t.Fatalf("both jobs were sent to one device: %v", devices)
	}
	stats := r.coord.Migration().Stats()
	if stats.Failures[migration.ReasonPredictive] != 0 || stats.Successes[migration.ReasonPredictive] != 2 {
		t.Fatalf("predictive drain: %d failures, %d successes, want 0 and 2",
			stats.Failures[migration.ReasonPredictive], stats.Successes[migration.ReasonPredictive])
	}
}
