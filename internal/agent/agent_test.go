package agent

import (
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

type testRig struct {
	clock *simclock.Sim
	agent *Agent
	ckpts *checkpoint.Store
	// blobs backs ckpts: tests damage stored checkpoints through it.
	blobs *storage.MemStore
	// link is the agent's one endpoint: it records every job report and
	// departure notice that reaches it.
	link *scriptedLink
}

func newRig(t *testing.T, specs ...gpu.Spec) *testRig {
	t.Helper()
	if len(specs) == 0 {
		specs = []gpu.Spec{gpu.RTX3090, gpu.RTX3090}
	}
	clock := simclock.NewSim(t0)
	blobs := storage.NewMemStore(0)
	ckpts := checkpoint.NewStore(blobs)
	link := &scriptedLink{}
	a := New(Config{MachineID: "node-test", Kernel: "5.15"}, clock, specs, ckpts, obs.NewRecorder(clock, 256))
	a.SetEndpoints([]Endpoint{{ID: "coord", Link: link}})
	t.Cleanup(a.Stop)
	return &testRig{clock: clock, agent: a, ckpts: ckpts, blobs: blobs, link: link}
}

// saveChain stores what a previous host of jobID left behind: a full
// 1000-byte checkpoint at the first step and a 100-byte increment on
// the one before at each later step (sequence numbers 1, 2, ...).
func saveChain(t *testing.T, ckpts *checkpoint.Store, jobID string, steps ...int64) {
	t.Helper()
	for i, step := range steps {
		ck := checkpoint.Checkpoint{
			JobID: jobID, Seq: i + 1, Bytes: 1000,
			Progress: checkpoint.Progress{Step: step}, Mechanism: "alc", CreatedAt: t0,
		}
		if i > 0 {
			ck.Incremental, ck.BaseSeq, ck.Bytes = true, i, 100
		}
		if err := ckpts.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
}

// startedDetail returns the detail of the agent's last job.started
// event for jobID.
func startedDetail(r *testRig, jobID string) map[string]string {
	var detail map[string]string
	for _, ev := range r.agent.trace.Events() {
		if ev.Kind == obs.KindJobStarted && ev.Job == jobID {
			detail = ev.Detail
		}
	}
	return detail
}

func launchTraining(t *testing.T, r *testRig, jobID string, spec workload.TrainingSpec, ckptSec int) api.LaunchResponse {
	t.Helper()
	resp, err := r.agent.Launch(api.LaunchRequest{
		JobID:                 jobID,
		ImageName:             "pytorch/pytorch:2.3-cuda12",
		Kind:                  "batch",
		GPUMemMiB:             spec.GPUMemMiB,
		CheckpointIntervalSec: ckptSec,
		Training:              &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLaunchBindsContainerAndGPU(t *testing.T) {
	r := newRig(t)
	resp := launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if resp.ContainerID != "ctr-j1" || resp.DeviceID == "" {
		t.Fatalf("resp = %+v", resp)
	}
	dev, err := r.agent.Runtime().Inventory().Device(resp.DeviceID)
	if err != nil {
		t.Fatal(err)
	}
	if holder := dev.AllocatedTo(); holder != resp.ContainerID {
		t.Fatalf("device %s held by %q, want %s", resp.DeviceID, holder, resp.ContainerID)
	}
	st := r.agent.Status()
	if len(st.RunningJobs) != 1 || st.RunningJobs[0] != "j1" {
		t.Fatalf("status = %+v", st)
	}
}

func TestLaunchDuplicateIdempotent(t *testing.T) {
	// A duplicate launch (retried or replayed request) for a job the
	// node already executes re-acknowledges the existing placement: same
	// container, same device, no second copy started.
	r := newRig(t)
	first := launchTraining(t, r, "j1", workload.SmallCNN, 0)
	resp, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		Training: &workload.SmallCNN,
	})
	if err != nil {
		t.Fatalf("duplicate launch failed: %v", err)
	}
	if resp != first {
		t.Fatalf("duplicate ack %+v differs from original %+v", resp, first)
	}
	if st := r.agent.Status(); len(st.RunningJobs) != 1 {
		t.Fatalf("duplicate launch changed the job set: %+v", st.RunningJobs)
	}
}

// TestLaunchOfStaleCopyRefused: a launch of a job the node still runs,
// when the agent now resolves another restore point than the copy
// started from, is a relaunch of a job requeued while the node kept
// running it (and checkpointed elsewhere meanwhile); the stale copy
// does not answer for it.
func TestLaunchOfStaleCopyRefused(t *testing.T) {
	r := newRig(t)
	first := launchTraining(t, r, "j1", workload.SmallCNN, 0)
	saveChain(t, r.ckpts, "j1", 500, 700, 900)
	if _, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		Training: &workload.SmallCNN,
	}); err == nil {
		t.Fatal("a relaunch that resolves checkpoint 3 was acknowledged by the copy started from none")
	}
	if st := r.agent.Status(); len(st.RunningJobs) != 1 {
		t.Fatalf("the refused launch changed the job set: %+v", st.RunningJobs)
	}
	if dev, _ := r.agent.Runtime().Inventory().Device(first.DeviceID); dev.AllocatedTo() != first.ContainerID {
		t.Fatal("the refused launch moved the stale copy's device")
	}
}

func TestLaunchWhilePausedRejected(t *testing.T) {
	r := newRig(t)
	r.agent.Pause()
	_, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		Training: &workload.SmallCNN,
	})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("err = %v, want ErrPaused", err)
	}
	r.agent.Resume()
	if _, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		Training: &workload.SmallCNN,
	}); err != nil {
		t.Fatalf("launch after resume: %v", err)
	}
}

func TestTrainingProgressesWithClock(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	r.clock.Advance(time.Minute)
	job, ok := r.agent.RunningJob("j1")
	if !ok {
		t.Fatal("job not running")
	}
	if job.Step() == 0 {
		t.Fatal("job made no progress after a simulated minute")
	}
	// Device telemetry reflects training load.
	dev, _ := r.agent.Runtime().Inventory().Device("gpu0")
	if dev.Telemetry().Utilization < 0.9 {
		t.Fatalf("device util = %v, want ~0.95", dev.Telemetry().Utilization)
	}
}

func TestTrainingCompletesAndNotifies(t *testing.T) {
	r := newRig(t)
	spec := workload.SmallCNN
	spec.TotalSteps = 50 // finishes in a few seconds of sim time
	launchTraining(t, r, "j1", spec, 0)
	r.clock.Advance(time.Minute)
	if len(r.link.updates) != 1 {
		t.Fatalf("updates = %+v", r.link.updates)
	}
	u := r.link.updates[0]
	if u.JobID != "j1" || u.State != db.JobCompleted || u.Step != 50 || u.MachineID != "node-test" {
		t.Fatalf("update = %+v", u)
	}
	if heldDevices(r.agent) != 0 {
		t.Fatal("GPU not freed after completion")
	}
}

func TestPeriodicCheckpointing(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 30) // every 30 s
	r.clock.Advance(95 * time.Second)
	seqs, err := r.ckpts.Sequences("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 3 {
		t.Fatalf("checkpoints after 95 s at 30 s interval = %v", seqs)
	}
	// First is full, the rest incremental.
	chain, err := r.ckpts.RestoreChain("j1")
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].Incremental {
		t.Fatal("first checkpoint should be full")
	}
	if len(chain) >= 2 && !chain[1].Incremental {
		t.Fatal("subsequent checkpoints should be incremental")
	}
}

func TestCheckpointNowOnDemand(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	r.clock.Advance(10 * time.Second)
	resp, err := r.agent.Checkpoint(api.CheckpointRequest{JobID: "j1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Seq != 1 || resp.Bytes <= 0 || resp.Step <= 0 {
		t.Fatalf("checkpoint = %+v", resp)
	}
	if _, err := r.agent.Checkpoint(api.CheckpointRequest{JobID: "ghost"}); !errors.Is(err, ErrJobUnknown) {
		t.Fatalf("unknown job err = %v", err)
	}
}

func TestKillSwitchTerminatesEverything(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	launchTraining(t, r, "j2", workload.SmallCNN, 0)
	killed := r.agent.KillSwitch()
	if len(killed) != 2 || killed[0] != "j1" || killed[1] != "j2" {
		t.Fatalf("killed = %v", killed)
	}
	if heldDevices(r.agent) != 0 {
		t.Fatal("GPUs still held after the kill-switch")
	}
	if len(r.agent.Status().RunningJobs) != 0 {
		t.Fatal("jobs survived the kill-switch")
	}
	// Kill-switch is local: no coordinator notification of job state.
	if len(r.link.updates) != 0 {
		t.Fatalf("kill-switch notified coordinator: %+v", r.link.updates)
	}
}

func TestKillSingleJob(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	launchTraining(t, r, "j2", workload.SmallCNN, 0)
	if err := r.agent.Kill("j1"); err != nil {
		t.Fatal(err)
	}
	st := r.agent.Status()
	if len(st.RunningJobs) != 1 || st.RunningJobs[0] != "j2" {
		t.Fatalf("running = %v", st.RunningJobs)
	}
	if err := r.agent.Kill("j1"); !errors.Is(err, ErrJobUnknown) {
		t.Fatalf("double kill err = %v", err)
	}
}

func TestScheduledDepartureCheckpointsFirst(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	r.clock.Advance(30 * time.Second)
	r.agent.Depart(api.DepartScheduled, time.Minute)

	if !r.agent.Departed() {
		t.Fatal("agent not departed")
	}
	// A final checkpoint exists with the job's progress.
	ck, err := r.ckpts.Latest("j1")
	if err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	if ck.Progress.Step == 0 {
		t.Fatal("final checkpoint captured no progress")
	}
	if len(r.link.departs) != 1 || r.link.departs[0].Reason != api.DepartScheduled {
		t.Fatalf("departs = %v", r.link.departs)
	}
}

func TestEmergencyDepartureSilent(t *testing.T) {
	r := newRig(t)
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	r.clock.Advance(30 * time.Second)
	r.agent.Depart(api.DepartEmergency, 0)
	// No checkpoint, no notification.
	if _, err := r.ckpts.Latest("j1"); err == nil {
		t.Fatal("emergency departure captured a checkpoint")
	}
	if len(r.link.departs) != 0 {
		t.Fatalf("emergency departure notified: %v", r.link.departs)
	}
	if heldDevices(r.agent) != 0 {
		t.Fatal("GPUs still held after emergency departure")
	}
}

func TestDepartedAgentRejectsLaunch(t *testing.T) {
	r := newRig(t)
	r.agent.Depart(api.DepartScheduled, 0)
	_, err := r.agent.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		Training: &workload.SmallCNN,
	})
	if !errors.Is(err, ErrDeparted) {
		t.Fatalf("err = %v, want ErrDeparted", err)
	}
}

// TestMigrationRestoreResumesProgress: a relaunch names no restore
// point; the agent resumes from the head of the chain its checkpoint
// path holds, answers its step, and records what the restore moved.
func TestMigrationRestoreResumesProgress(t *testing.T) {
	r := newRig(t)
	saveChain(t, r.ckpts, "j1", 500, 900, 1200)
	resp := launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if resp.RestoreStep != 1200 {
		t.Fatalf("answered restore step %d, want 1200", resp.RestoreStep)
	}
	job, _ := r.agent.RunningJob("j1")
	if job.Step() != 1200 {
		t.Fatalf("restored step = %d, want 1200", job.Step())
	}
	want := map[string]string{"container": "ctr-j1", "restore_step": "1200", "restore_bytes": "1200", "restore_delay": "0s"}
	if got := startedDetail(r, "j1"); !maps.Equal(got, want) {
		t.Fatalf("job.started detail = %v, want %v", got, want)
	}
	// Next checkpoint continues the sequence.
	r.clock.Advance(5 * time.Second)
	ck, err := r.agent.Checkpoint(api.CheckpointRequest{JobID: "j1", Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Seq != 4 {
		t.Fatalf("checkpoint seq = %d, want 4 (continues after restore)", ck.Seq)
	}
}

// TestLaunchFallsBackPastCorruptHead: a newest checkpoint that fails
// verification costs one generation at the agent, never the job.
func TestLaunchFallsBackPastCorruptHead(t *testing.T) {
	r := newRig(t)
	saveChain(t, r.ckpts, "j1", 500, 900, 1200)
	keys, err := r.blobs.List("")
	if err != nil || len(keys) != 3 {
		t.Fatalf("stored keys = %v, %v", keys, err)
	}
	head := keys[len(keys)-1] // List sorts, and sequence numbers are zero-padded
	raw, _ := r.blobs.Get(head)
	raw[len(raw)/2] ^= 0x04
	_ = r.blobs.Put(head, raw)

	if resp := launchTraining(t, r, "j1", workload.SmallCNN, 0); resp.RestoreStep != 900 {
		t.Fatalf("answered restore step %d, want 900 (one generation back)", resp.RestoreStep)
	}
	if job, _ := r.agent.RunningJob("j1"); job.Step() != 900 {
		t.Fatalf("restored step = %d, want 900", job.Step())
	}
}

// slowPath is a checkpoint path whose every fetch takes delay; it counts
// the fetches.
type slowPath struct {
	*checkpoint.Store
	delay   time.Duration
	fetches int
}

func (p *slowPath) Fetch([]checkpoint.Checkpoint) time.Duration {
	p.fetches++
	return p.delay
}

// TestRestoreStallsUntilBytesArrive: a restored job steps only once its
// chain's bytes have arrived, and the job.started event says how long
// that took. A duplicate launch the running copy answers fetches
// nothing, and neither does a job with no chain.
func TestRestoreStallsUntilBytesArrive(t *testing.T) {
	clock := simclock.NewSim(t0)
	path := &slowPath{Store: checkpoint.NewStore(storage.NewMemStore(0)), delay: 30 * time.Second}
	rec := obs.NewRecorder(clock, 64)
	a := New(Config{MachineID: "n1", Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}, path, rec)
	t.Cleanup(a.Stop)
	r := &testRig{clock: clock, agent: a, ckpts: path.Store}
	saveChain(t, path.Store, "j1", 500, 900)

	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if got := startedDetail(r, "j1")["restore_delay"]; got != "30s" {
		t.Fatalf("restore_delay = %q, want 30s", got)
	}
	clock.Advance(25 * time.Second)
	job, _ := a.RunningJob("j1")
	if job.Step() != 900 {
		t.Fatalf("step %d before the chain arrived, want 900", job.Step())
	}
	clock.Advance(35 * time.Second)
	if job.Step() <= 900 {
		t.Fatal("the job did not step once its chain arrived")
	}

	launchTraining(t, r, "j1", workload.SmallCNN, 0) // a duplicate
	launchTraining(t, r, "j2", workload.SmallCNN, 0) // no chain
	if path.fetches != 1 {
		t.Fatalf("%d fetches, want 1", path.fetches)
	}
	if d := startedDetail(r, "j2"); d["restore_bytes"] != "" {
		t.Fatalf("a fresh start recorded a restore: %v", d)
	}
}

func TestInteractiveSessionExpires(t *testing.T) {
	r := newRig(t)
	_, err := r.agent.Launch(api.LaunchRequest{
		JobID: "sess1", ImageName: "gpunion/jupyter-dl:latest", Kind: "interactive",
		GPUMemMiB: 4096, SessionSeconds: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(30 * time.Second)
	if len(r.agent.Status().RunningJobs) != 1 {
		t.Fatal("session ended early")
	}
	r.clock.Advance(31 * time.Second)
	if len(r.agent.Status().RunningJobs) != 0 {
		t.Fatal("session did not expire")
	}
	if len(r.link.updates) != 1 || r.link.updates[0].State != db.JobCompleted {
		t.Fatalf("updates = %+v", r.link.updates)
	}
}

func TestHeartbeatRequestShape(t *testing.T) {
	r := newRig(t)
	if _, err := r.agent.Join("inproc://node-test", 1<<30); err != nil {
		t.Fatal(err)
	}
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	hb := r.agent.HeartbeatRequest()
	if hb.MachineID != "node-test" || hb.Token != "tok-1" {
		t.Fatalf("hb = %+v", hb)
	}
	if len(hb.Telemetry) != 2 || len(hb.RunningJobs) != 1 {
		t.Fatalf("hb = %+v", hb)
	}
}

func TestRegisterRequestInventoriesGPUs(t *testing.T) {
	r := newRig(t, gpu.A100, gpu.A6000)
	req := r.agent.RegisterRequest("http://127.0.0.1:7070", 1<<30)
	if len(req.GPUs) != 2 {
		t.Fatalf("GPUs = %+v", req.GPUs)
	}
	if req.GPUs[0].Model != "A100" || req.GPUs[0].Arch != "ampere" {
		t.Fatalf("GPUs[0] = %+v", req.GPUs[0])
	}
	if req.Kernel != "5.15" || req.MachineID != "node-test" || len(req.RunningJobs) != 0 {
		t.Fatalf("req = %+v", req)
	}
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if req := r.agent.RegisterRequest("http://127.0.0.1:7070", 1<<30); !slices.Equal(req.RunningJobs, []string{"j1"}) {
		t.Fatalf("RunningJobs = %v, want the job table's [j1]", req.RunningJobs)
	}
}

func TestCheckpointFailureDoesNotKillJob(t *testing.T) {
	// Back the checkpoint store with a full store so saves fail.
	clock := simclock.NewSim(t0)
	full := checkpoint.NewStore(storage.NewMemStore(1)) // 1-byte capacity
	trace := obs.NewRecorder(clock, 64)
	a := New(Config{MachineID: "n", Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090}, full, trace)
	defer a.Stop()
	spec := workload.SmallCNN
	if _, err := a.Launch(api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 10, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Minute)
	if job, ok := a.RunningJob("j1"); !ok || job.Step() == 0 {
		t.Fatal("job died because checkpoints failed")
	}
	// Still holding its GPU despite capture failures.
	if heldDevices(a) != 1 {
		t.Fatal("GPU released")
	}
	// The failed saves have their own kind: job.failed is a job's end.
	if kinds := obs.Kinds(trace.Events()); kinds[obs.KindJobCheckpointFailed] == 0 || kinds[obs.KindJobFailed] != 0 {
		t.Fatalf("trace kinds = %v, want checkpoint failures and no job.failed", kinds)
	}
}

// TestSkewBackwardJumpDoesNotStallProgress: stepping the agent's clock
// backwards rebases its per-run deadlines; training keeps advancing on
// the very next tick instead of stalling for the jump width.
func TestSkewBackwardJumpDoesNotStallProgress(t *testing.T) {
	r := newRig(t)
	skewed := simclock.NewSkewed(r.clock)
	a := New(Config{MachineID: "m1", Kernel: "5.15"}, skewed, []gpu.Spec{gpu.RTX3090}, r.ckpts, nil)
	defer a.Stop()
	launchVia(t, a, "j1", workload.SmallCNN)

	r.clock.Advance(5 * time.Second)
	job, _ := a.RunningJob("j1")
	before := job.Step()
	if before == 0 {
		t.Fatal("no progress before the jump")
	}

	// The clock steps back two minutes; without rebasing, elapsed would
	// stay negative for the next 120 ticks and progress would freeze.
	skewed.SetOffset(-2 * time.Minute)
	r.clock.Advance(3 * time.Second)
	if after := job.Step(); after <= before {
		t.Fatalf("progress stalled after backward jump: %d -> %d", before, after)
	}
}

// TestSkewForwardJumpDoesNotMintProgress: stepping the clock forward
// must not credit the job with training steps nobody computed. A single
// tick accounts at most two tick periods.
func TestSkewForwardJumpDoesNotMintProgress(t *testing.T) {
	r := newRig(t)
	skewed := simclock.NewSkewed(r.clock)
	a := New(Config{MachineID: "m1", Kernel: "5.15"}, skewed, []gpu.Spec{gpu.RTX3090}, r.ckpts, nil)
	defer a.Stop()
	launchVia(t, a, "j1", workload.SmallCNN)

	r.clock.Advance(5 * time.Second)
	job, _ := a.RunningJob("j1")
	before := job.Step()

	// Jump an hour ahead: the next tick sees elapsed = 1h + 1s but may
	// account at most 2 x ProgressTick.
	skewed.SetOffset(time.Hour)
	r.clock.Advance(time.Second)
	after := job.Step()
	spec := workload.SmallCNN
	maxSteps := spec.StepsIn(2*time.Second, gpu.RTX3090) + 1
	if after-before > maxSteps {
		t.Fatalf("forward jump minted %d steps (max %d)", after-before, maxSteps)
	}
}

// launchVia starts a training job on an explicitly-constructed agent.
func launchVia(t *testing.T, a *Agent, jobID string, spec workload.TrainingSpec) {
	t.Helper()
	if _, err := a.Launch(api.LaunchRequest{
		JobID: jobID, ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLaunchConcurrentDuplicatesConverge: duplicate launches racing the
// original (the HTTP retry case) all return the same idempotent ack —
// never an error, never a second copy.
func TestLaunchConcurrentDuplicatesConverge(t *testing.T) {
	r := newRig(t)
	spec := workload.SmallCNN
	req := api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}
	const n = 8
	var wg sync.WaitGroup
	resps := make([]api.LaunchResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = r.agent.Launch(req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent duplicate %d failed: %v", i, errs[i])
		}
		if resps[i] != resps[0] {
			t.Fatalf("divergent acks: %+v vs %+v", resps[i], resps[0])
		}
	}
	if st := r.agent.Status(); len(st.RunningJobs) != 1 {
		t.Fatalf("running jobs = %v, want exactly one", st.RunningJobs)
	}
}

// TestJobEndsReleaseDevice is every way a job ends on an agent: each
// one frees the GPU and drops the job from Status, and the agent keeps
// nothing of it, so the same job can be launched again (a migration back
// to a node that ran it) until the node has departed.
func TestJobEndsReleaseDevice(t *testing.T) {
	cases := []struct {
		name     string
		end      func(r *testRig)
		departed bool
	}{
		{name: "kill order", end: func(r *testRig) {
			if err := r.agent.KillJob(api.KillRequest{JobID: "j1"}); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "completion", end: func(r *testRig) { r.clock.Advance(time.Minute) }},
		{name: "kill-switch", end: func(r *testRig) { r.agent.KillSwitch() }},
		{name: "scheduled departure", departed: true,
			end: func(r *testRig) { r.agent.Depart(api.DepartScheduled, time.Minute) }},
		{name: "emergency departure", departed: true,
			end: func(r *testRig) { r.agent.Depart(api.DepartEmergency, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			spec := workload.SmallCNN
			spec.TotalSteps = 50 // completes within a simulated minute
			first := launchTraining(t, r, "j1", spec, 0)
			tc.end(r)
			if n := heldDevices(r.agent); n != 0 {
				t.Fatalf("%d GPUs still held", n)
			}
			if jobs := r.agent.Status().RunningJobs; len(jobs) != 0 {
				t.Fatalf("Status still lists %v", jobs)
			}
			r.agent.mu.Lock()
			left := len(r.agent.jobs)
			r.agent.mu.Unlock()
			if left != 0 {
				t.Fatalf("agent kept %d job entries", left)
			}
			again, err := r.agent.Launch(api.LaunchRequest{
				JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
				GPUMemMiB: spec.GPUMemMiB, Training: &spec,
			})
			if tc.departed {
				if !errors.Is(err, ErrDeparted) {
					t.Fatalf("relaunch after departure: err = %v, want ErrDeparted", err)
				}
				return
			}
			if err != nil || again != first {
				t.Fatalf("relaunch = %+v, %v; first launch %+v", again, err, first)
			}
		})
	}
}

// TestLaunchConcurrentWithKill: a kill racing a launch of the same job
// finds the job either not yet started (ErrJobUnknown, and the launch
// then runs it) or fully started (the kill ends it and frees its GPU) —
// never half of it.
func TestLaunchConcurrentWithKill(t *testing.T) {
	r := newRig(t)
	spec := workload.SmallCNN
	req := api.LaunchRequest{
		JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	}
	for i := 0; i < 50; i++ {
		var wg sync.WaitGroup
		var launchErr, killErr error
		wg.Add(2)
		go func() { defer wg.Done(); _, launchErr = r.agent.Launch(req) }()
		go func() { defer wg.Done(); killErr = r.agent.KillJob(api.KillRequest{JobID: "j1"}) }()
		wg.Wait()
		if launchErr != nil {
			t.Fatalf("round %d: launch failed: %v", i, launchErr)
		}
		running := len(r.agent.Status().RunningJobs) == 1
		switch {
		case killErr == nil && running:
			t.Fatalf("round %d: the kill succeeded but the job still runs", i)
		case killErr != nil && !errors.Is(killErr, ErrJobUnknown):
			t.Fatalf("round %d: kill failed: %v", i, killErr)
		case killErr != nil && !running:
			t.Fatalf("round %d: the kill missed the job and it does not run", i)
		}
		if held, want := heldDevices(r.agent), len(r.agent.Status().RunningJobs); held != want {
			t.Fatalf("round %d: %d GPUs held for %d running jobs", i, held, want)
		}
		_ = r.agent.Kill("j1")
	}
}

// heldDevices counts the agent's GPUs bound to a container.
func heldDevices(a *Agent) int {
	n := 0
	for _, d := range a.Runtime().Inventory().Devices() {
		if !d.Free() {
			n++
		}
	}
	return n
}
