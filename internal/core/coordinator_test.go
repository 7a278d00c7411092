package core

import (
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpunion/internal/agent"
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

// rig is an in-process campus: one coordinator, several agents, shared
// checkpoint store, all on one simulated clock with automatic heartbeats.
type rig struct {
	t     *testing.T
	clock *simclock.Sim
	coord *Coordinator
	ckpts *checkpoint.Store
	ags   map[string]*agent.Agent
}

func newRig(t *testing.T, hbInterval time.Duration) *rig {
	t.Helper()
	clock := simclock.NewSim(t0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := New(Config{HeartbeatInterval: hbInterval}, clock,
		db.New(0), ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return &rig{t: t, clock: clock, coord: coord, ckpts: ckpts, ags: make(map[string]*agent.Agent)}
}

// linkTo returns ag's link to c over an address book of their own: c
// answers at "coordinator" and ag at its machine ID, each through its
// shipped handler, so both directions cross the decode, status mapping
// and error reconstruction the daemons run. ag registers at
// "inproc://" plus its machine ID.
func linkTo(c *Coordinator, ag *agent.Agent) *api.CoordinatorClient {
	hosts := &api.Hosts{}
	wire := &http.Client{Transport: hosts}
	hosts.Serve(ag.MachineID(), ag.Handler())
	hosts.Serve("coordinator", c.Handler(func(addr string) AgentHandle {
		return &api.AgentClient{BaseURL: addr, HTTPClient: wire}
	}))
	return &api.CoordinatorClient{BaseURL: "http://coordinator", HTTPClient: wire}
}

// handleOf is a coordinator's handle on ag through ag's own handler.
func handleOf(ag *agent.Agent) AgentHandle {
	return &api.AgentClient{BaseURL: "http://" + ag.MachineID(),
		HTTPClient: &http.Client{Transport: api.InProcess{Handler: ag.Handler()}}}
}

// addNode creates an agent with the given GPUs and joins it through the
// coordinator's handler in process, which starts its heartbeat loop on
// the simulated clock.
func (r *rig) addNode(id string, specs ...gpu.Spec) *agent.Agent {
	r.t.Helper()
	ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, r.clock, specs, r.ckpts, nil)
	ag.SetEndpoints([]agent.Endpoint{{Link: linkTo(r.coord, ag)}})
	r.t.Cleanup(ag.Stop)
	if _, err := ag.Join("inproc://"+id, 1<<30); err != nil {
		r.t.Fatal(err)
	}
	r.ags[id] = ag
	return ag
}

// reboot brings node id back the way its machine comes back: the old
// agent is stopped and a fresh one under the same ID joins.
func (r *rig) reboot(id string, specs ...gpu.Spec) *agent.Agent {
	r.t.Helper()
	r.ags[id].Stop()
	return r.addNode(id, specs...)
}

// jobReport is the terminal report ag sends for jobID, with its own
// credential.
func jobReport(ag *agent.Agent, jobID string, state db.JobState) api.JobUpdateRequest {
	return api.JobUpdateRequest{MachineID: ag.MachineID(), Token: ag.Token(), JobID: jobID, State: state}
}

func submitTraining(t *testing.T, r *rig, spec workload.TrainingSpec, ckptSec int) string {
	t.Helper()
	id, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: ckptSec, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestSubmitSchedulesAndCompletes(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	spec := workload.SmallCNN
	spec.TotalSteps = 100
	id := submitTraining(t, r, spec, 0)

	st, err := r.coord.JobStatus(id)
	if err != nil || st.State != db.JobRunning || st.NodeID != "n1" {
		t.Fatalf("status = %+v, %v", st, err)
	}
	r.clock.Advance(2 * time.Minute)
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobCompleted {
		t.Fatalf("state = %s, want completed", st.State)
	}
	// Device freed in the coordinator's resource view.
	nodes := r.coord.Nodes()
	if nodes[0].GPUs[0].Allocated {
		t.Fatal("device still marked allocated after completion")
	}
}

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, 10*time.Second)
	if _, err := r.coord.SubmitJob(api.SubmitJobRequest{Kind: "weird", ImageName: "x"}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := r.coord.SubmitJob(api.SubmitJobRequest{Kind: "batch"}); err == nil {
		t.Fatal("empty image accepted")
	}
	for _, mem := range []int64{0, -1} {
		if _, err := r.coord.SubmitJob(api.SubmitJobRequest{Kind: "batch", ImageName: "x", GPUMemMiB: mem}); err == nil {
			t.Fatalf("gpu_mem_mib %d accepted", mem)
		}
	}
}

func TestJobQueuesWhenFull(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090) // one device
	long := workload.SmallCNN
	id1 := submitTraining(t, r, long, 0)
	id2 := submitTraining(t, r, long, 0)

	st1, _ := r.coord.JobStatus(id1)
	st2, _ := r.coord.JobStatus(id2)
	if st1.State != db.JobRunning || st2.State != db.JobPending {
		t.Fatalf("states = %s, %s", st1.State, st2.State)
	}
}

func TestQueuedJobStartsWhenCapacityFrees(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	short := workload.SmallCNN
	short.TotalSteps = 50
	id1 := submitTraining(t, r, short, 0)
	id2 := submitTraining(t, r, workload.SmallCNN, 0)
	r.clock.Advance(2 * time.Minute) // id1 finishes, id2 should start
	st1, _ := r.coord.JobStatus(id1)
	st2, _ := r.coord.JobStatus(id2)
	if st1.State != db.JobCompleted {
		t.Fatalf("job1 = %s", st1.State)
	}
	if st2.State != db.JobRunning {
		t.Fatalf("job2 = %s, want running after capacity freed", st2.State)
	}
}

func TestScheduledDepartureMigratesJob(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)

	st, _ := r.coord.JobStatus(id)
	if st.NodeID != "n1" {
		t.Fatalf("job started on %s", st.NodeID)
	}
	r.clock.Advance(time.Minute) // progress + periodic checkpoints

	ag1.Depart(api.DepartScheduled, time.Minute)

	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID != "n2" {
		t.Fatalf("after departure: %+v, want running on n2", st)
	}
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d", st.Migrations)
	}
	// Progress resumed from the final checkpoint, not zero.
	job, ok := r.ags["n2"].RunningJob(id)
	if !ok || job.Step() == 0 {
		t.Fatal("migrated job lost all progress")
	}
	requeued := obs.Kinds(r.coord.Trace().Events())[obs.KindJobRequeued]
	if s := migrated(r.coord.Trace())["scheduled"]; s == 0 || requeued != 0 {
		t.Fatalf("scheduled migrations: %d succeeded, %d requeued", s, requeued)
	}
}

// TestMigrationIsOneJobWrite: a displaced job's move writes its record
// once. With a target, that write places the job there and counts the
// migration; with none, it requeues the job.
func TestMigrationIsOneJobWrite(t *testing.T) {
	for _, target := range []bool{true, false} {
		t.Run(map[bool]string{true: "target", false: "no target"}[target], func(t *testing.T) {
			r := newRig(t, 10*time.Second)
			ag1 := r.addNode("n1", gpu.RTX3090)
			id := submitTraining(t, r, workload.SmallCNN, 30)
			if target {
				r.addNode("n2", gpu.RTX3090)
			}
			r.clock.Advance(time.Minute)

			var puts []db.JobRecord
			cancel := r.coord.DB().AddMutationObserver(func(m db.Mutation) {
				if m.Type == db.MutJobPut && m.Job != nil && m.Job.ID == id {
					puts = append(puts, *m.Job)
				}
			})
			defer cancel()
			ag1.Depart(api.DepartScheduled, time.Minute)

			want := db.JobRecord{State: db.JobPending}
			if target {
				want = db.JobRecord{State: db.JobRunning, NodeID: "n2", Migrations: 1}
			}
			if len(puts) != 1 || puts[0].State != want.State || puts[0].NodeID != want.NodeID ||
				puts[0].Migrations != want.Migrations {
				t.Fatalf("job_put records of the move: %+v; want one, %s on %q with %d migrations",
					puts, want.State, want.NodeID, want.Migrations)
			}
		})
	}
}

func TestEmergencyDepartureDetectedByHeartbeatLoss(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 15)
	r.clock.Advance(time.Minute) // build up checkpoints

	stepBefore := func() int64 {
		if job, ok := ag1.RunningJob(id); ok {
			return job.Step()
		}
		return -1
	}()
	ckBefore, err := r.ckpts.Latest(id)
	if err != nil {
		t.Fatal(err)
	}
	ag1.Depart(api.DepartEmergency, 0) // silent

	// Within 2 intervals: not yet detected.
	r.clock.Advance(20 * time.Second)
	st, _ := r.coord.JobStatus(id)
	if st.NodeID != "n1" {
		t.Fatalf("job moved before detection threshold: %+v", st)
	}
	// After 3+ intervals: detected and migrated.
	r.clock.Advance(30 * time.Second)
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID != "n2" {
		t.Fatalf("after loss: %+v, want running on n2", st)
	}
	// Emergency loses work back to the last checkpoint.
	job, ok := r.ags["n2"].RunningJob(id)
	if !ok {
		t.Fatal("job not running on n2")
	}
	if job.Step() < ckBefore.Progress.Step {
		t.Fatalf("restored below checkpoint: %d < %d", job.Step(), ckBefore.Progress.Step)
	}
	// The pre-departure checkpoint can never be ahead of real progress.
	if stepBefore > 0 && ckBefore.Progress.Step > stepBefore {
		t.Fatalf("checkpoint ahead of actual progress: %d > %d", ckBefore.Progress.Step, stepBefore)
	}
	nodes := r.coord.Nodes()
	for _, n := range nodes {
		if n.ID == "n1" && n.Status != db.NodeUnreachable {
			t.Fatalf("n1 status = %s, want unreachable", n.Status)
		}
	}
}

func TestTemporaryDepartureMigratesBackOnReturn(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)
	r.clock.Advance(time.Minute)

	ag1.Depart(api.DepartTemporary, time.Minute)
	st, _ := r.coord.JobStatus(id)
	if st.NodeID != "n2" {
		t.Fatalf("job not displaced to n2: %+v", st)
	}

	// The provider comes back as a fresh agent; its registration
	// triggers the migrate-back.
	r.reboot("n1", gpu.RTX3090)
	r.clock.Advance(20 * time.Second)

	st, _ = r.coord.JobStatus(id)
	if st.NodeID != "n1" {
		t.Fatalf("job not migrated back: %+v", st)
	}
	if st.Migrations < 2 {
		t.Fatalf("migrations = %d, want >= 2 (out and back)", st.Migrations)
	}
	if n := migrated(r.coord.Trace())["migrate-back"]; n != 1 {
		t.Fatalf("migrate-back successes = %d", n)
	}
}

func TestKillSwitchJobRequeuedByDetection(t *testing.T) {
	// Kill-switch is silent at the platform level: the job dies on the
	// node but the node keeps heartbeating. The coordinator only learns
	// via the agent's job list going empty... which GPUnion handles by
	// the job simply never completing on that node. The coordinator's
	// job record still says running on n1 — this is the trade-off of
	// provider supremacy. Here we verify the kill-switch path itself.
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)
	killed := ag1.KillSwitch()
	if len(killed) != 1 || killed[0] != id {
		t.Fatalf("killed = %v", killed)
	}
	if len(ag1.Status().RunningJobs) != 0 {
		t.Fatal("job survived kill-switch")
	}
}

func TestCoordinatorKillJob(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 0)
	if err := r.coord.KillJob(id); err != nil {
		t.Fatal(err)
	}
	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobKilled {
		t.Fatalf("state = %s", st.State)
	}
	if len(r.ags["n1"].Status().RunningJobs) != 0 {
		t.Fatal("agent still running the killed job")
	}
	if err := r.coord.KillJob("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v", err)
	}
}

// killInLaunch is an agent handle whose launches let the user's kill of
// the job arrive while the launch RPC is in flight.
type killInLaunch struct {
	AgentHandle
	coord *Coordinator
}

func (h killInLaunch) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	resp, err := h.AgentHandle.Launch(req)
	if kerr := h.coord.KillJob(req.JobID); kerr != nil {
		return resp, kerr
	}
	return resp, err
}

// TestKillDuringLaunchWins: a kill that lands while the job's launch
// RPC is in flight stands. The placement's commit finds the job
// resolved, kills the copy it just started, and holds no device and no
// allocation episode.
func TestKillDuringLaunchWins(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	r.coord.mu.Lock()
	r.coord.agents["n1"] = killInLaunch{AgentHandle: r.coord.agents["n1"], coord: r.coord}
	r.coord.mu.Unlock()

	id := submitTraining(t, r, workload.SmallCNN, 0)
	if st, _ := r.coord.JobStatus(id); st.State != db.JobKilled {
		t.Fatalf("job = %+v, want killed", st)
	}
	if n := len(r.ags["n1"].Status().RunningJobs); n != 0 {
		t.Fatalf("n1 runs %d jobs after the kill", n)
	}
	if rec, _ := r.coord.db.GetNode("n1"); rec.GPUs[0].Allocated {
		t.Fatal("the killed job's device is still held")
	}
	for _, a := range r.coord.db.Allocations() {
		if a.JobID == id && a.End.IsZero() {
			t.Fatalf("open allocation episode for the killed job: %+v", a)
		}
	}
}

// TestKillDuringMoveWins: a kill that lands while a displaced job's
// launch on its target is in flight stands, though the record still
// names the source. The move's commit finds the job resolved and kills
// the target's copy; no device stays held and no episode open.
func TestKillDuringMoveWins(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 30)
	r.addNode("n2", gpu.RTX3090)
	r.coord.mu.Lock()
	r.coord.agents["n2"] = killInLaunch{AgentHandle: r.coord.agents["n2"], coord: r.coord}
	r.coord.mu.Unlock()
	r.clock.Advance(time.Minute)

	ag1.Depart(api.DepartScheduled, time.Minute)
	if st, _ := r.coord.JobStatus(id); st.State != db.JobKilled {
		t.Fatalf("job = %+v, want killed", st)
	}
	if n := len(r.ags["n2"].Status().RunningJobs); n != 0 {
		t.Fatalf("n2 runs %d jobs after the kill", n)
	}
	for _, n := range []string{"n1", "n2"} {
		if rec, _ := r.coord.db.GetNode(n); rec.GPUs[0].Allocated {
			t.Fatalf("%s's device is still held", n)
		}
	}
	for _, a := range r.coord.db.Allocations() {
		if a.JobID == id && a.End.IsZero() {
			t.Fatalf("open allocation episode for the killed job: %+v", a)
		}
	}
}

// TestKillOfEndedJobKeepsIt: killing a job that already completed
// leaves it as it ended: the same state, the same FinishedAt, and no
// write to the store.
func TestKillOfEndedJobKeepsIt(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)
	spec := workload.SmallCNN
	spec.TotalSteps = 50
	id := submitTraining(t, r, spec, 0)
	r.clock.Advance(2 * time.Minute) // completes and reports
	rec, err := r.coord.db.GetJob(id)
	if err != nil || rec.State != db.JobCompleted {
		t.Fatalf("job = %+v, %v", rec, err)
	}

	r.clock.Advance(time.Minute)
	before := r.coord.db.CurrentLSN()
	if err := r.coord.KillJob(id); err != nil {
		t.Fatal(err)
	}
	after, _ := r.coord.db.GetJob(id)
	if after.State != db.JobCompleted || !after.FinishedAt.Equal(rec.FinishedAt) {
		t.Fatalf("kill rewrote the completed job: %+v, was %+v", after, rec)
	}
	if lsn := r.coord.db.CurrentLSN(); lsn != before {
		t.Fatalf("kill of a completed job wrote the store: LSN %d -> %d", before, lsn)
	}
}

// TestSettleOfEarlierPlacementWritesNothing: a settle whose caller read
// an earlier placement of the job leaves a later one on the same device
// alone: the job keeps running, its device held and its episode open.
func TestSettleOfEarlierPlacementWritesNothing(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)
	id := submitTraining(t, r, workload.SmallCNN, 0)
	stale, _ := r.coord.db.GetJob(id)

	r.clock.Advance(time.Minute)
	r.coord.requeueFromCheckpoint(stale, r.clock.Now())
	r.coord.trySchedule()
	again, _ := r.coord.db.GetJob(id)
	if again.State != db.JobRunning || again.NodeID != stale.NodeID || again.DeviceID != stale.DeviceID ||
		again.PlacedAt.Equal(stale.PlacedAt) {
		t.Fatalf("job = %+v, want it placed again on the same device", again)
	}

	if r.coord.settle(stale, db.JobPending, r.clock.Now()) {
		t.Fatal("settle of the earlier placement applied")
	}
	if cur, _ := r.coord.db.GetJob(id); cur.State != db.JobRunning || !cur.PlacedAt.Equal(again.PlacedAt) {
		t.Fatalf("job = %+v, want the later placement", cur)
	}
	if rec, _ := r.coord.db.GetNode("n1"); !rec.GPUs[0].Allocated {
		t.Fatal("the later placement's device was freed")
	}
	open := 0
	for _, a := range r.coord.db.Allocations() {
		if a.JobID == id && a.End.IsZero() {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("%d open allocation episodes for the job, want 1", open)
	}
}

func TestHeartbeatBadToken(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag := r.addNode("n1", gpu.RTX3090)
	req := ag.HeartbeatRequest()
	req.Token = "forged.token"
	if _, err := r.coord.Heartbeat(req); !errors.Is(err, ErrBadToken) {
		t.Fatalf("err = %v, want ErrBadToken", err)
	}
}

// TestHeartbeatExpiredTokenAsksReregister: a token the coordinator has
// already verified (and remembers) still runs out — the first beat past
// its expiry is answered with Reregister, not acknowledged.
func TestHeartbeatExpiredTokenAsksReregister(t *testing.T) {
	clock := simclock.NewSim(t0)
	coord, err := New(Config{HeartbeatInterval: 10 * time.Second, TokenTTL: time.Minute}, clock,
		db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	reg, err := coord.Register(api.RegisterRequest{MachineID: "n1", Addr: "fake://n1"}, newFakeAgent())
	if err != nil {
		t.Fatal(err)
	}
	beat := api.HeartbeatRequest{MachineID: "n1", Token: reg.Token}
	for _, step := range []struct {
		advance    time.Duration
		reregister bool
	}{{10 * time.Second, false}, {10 * time.Second, false}, {time.Minute, true}} {
		clock.Advance(step.advance)
		beat.BeatSeq++
		resp, err := coord.Heartbeat(beat)
		if err != nil || resp.Reregister != step.reregister || resp.Acknowledged == step.reregister {
			t.Fatalf("beat %d at +%v: resp = %+v, %v; want reregister=%v",
				beat.BeatSeq, clock.Now().Sub(t0), resp, err, step.reregister)
		}
	}
}

func TestHeartbeatUnknownNodeAsksReregister(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag := r.addNode("n1", gpu.RTX3090)
	// A token for a node the DB doesn't know (fresh coordinator state).
	r2 := newRig(t, 10*time.Second)
	tok, _ := r2.coord.authy.Issue("n1", "provider", t0)
	req := ag.HeartbeatRequest()
	req.Token = tok
	resp, err := r2.coord.Heartbeat(req)
	if err != nil || !resp.Reregister {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
}

func TestRegisterEmptyMachineID(t *testing.T) {
	r := newRig(t, 10*time.Second)
	if _, err := r.coord.Register(api.RegisterRequest{}, nil); err == nil {
		t.Fatal("empty machine id accepted")
	}
}

func TestDepartureIncrementsReliabilityHistory(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	ag1.Depart(api.DepartScheduled, 0)
	nodes := r.coord.Nodes()
	if nodes[0].Departures != 1 {
		t.Fatalf("departures = %d", nodes[0].Departures)
	}
	if nodes[0].Status != db.NodeDeparted {
		t.Fatalf("status = %s", nodes[0].Status)
	}
}

func TestInteractiveSessionCounted(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	_, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "interactive", ImageName: "gpunion/jupyter-dl:latest",
		GPUMemMiB: 4096, SessionSeconds: 600,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.coord.InteractiveSessions() != 1 {
		t.Fatalf("interactive sessions = %d", r.coord.InteractiveSessions())
	}
}

func TestTelemetryPersistedOnHeartbeat(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	submitTraining(t, r, workload.SmallCNN, 0)
	r.clock.Advance(time.Minute)
	samples := r.coord.DB().SamplesInRange("gpu_utilization", "n1", t0, t0.Add(2*time.Minute))
	if len(samples) == 0 {
		t.Fatal("no utilization samples persisted")
	}
	var busy bool
	for _, s := range samples {
		if s.Value > 0.9 {
			busy = true
		}
	}
	if !busy {
		t.Fatal("no sample reflects training load")
	}
}

func TestMetricsExposition(t *testing.T) {
	r := newRig(t, 10*time.Second)
	r.addNode("n1", gpu.RTX3090)
	submitTraining(t, r, workload.SmallCNN, 0)
	var sb strings.Builder
	if err := r.coord.Metrics().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gpunion_scheduling_latency_seconds_count") {
		t.Fatalf("metrics missing scheduling latency:\n%s", sb.String())
	}
}

func TestNoCapacityJobWaitsForNewNode(t *testing.T) {
	r := newRig(t, 10*time.Second)
	id := submitTraining(t, r, workload.SmallCNN, 0) // no nodes at all
	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobPending {
		t.Fatalf("state = %s, want pending", st.State)
	}
	// A node joins: dynamic node joining is native (Table 1).
	r.addNode("n1", gpu.RTX3090)
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning {
		t.Fatalf("state = %s, want running after node join", st.State)
	}
}

func TestRequeueWhenNoMigrationTarget(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090) // the only node
	id := submitTraining(t, r, workload.SmallCNN, 30)
	r.clock.Advance(time.Minute)
	ag1.Depart(api.DepartScheduled, time.Minute)

	st, _ := r.coord.JobStatus(id)
	if st.State != db.JobPending {
		t.Fatalf("state = %s, want pending (no target)", st.State)
	}
	// Capacity returns: the job resumes from its checkpoint.
	r.addNode("n2", gpu.RTX3090)
	st, _ = r.coord.JobStatus(id)
	if st.State != db.JobRunning || st.NodeID != "n2" {
		t.Fatalf("after new node: %+v", st)
	}
	job, ok := r.ags["n2"].RunningJob(id)
	if !ok {
		t.Fatal("job not running")
	}
	if job.Step() == 0 {
		t.Fatal("requeued job lost its checkpointed progress")
	}
}

// heldSamples reads how many telemetry points the store holds. Samples
// take no LSN, so "was this beat processed" is read off the sample
// table, not the mutation sequence.
func heldSamples(s db.Store) int { return len(s.ExportState().Samples) }

// TestHeartbeatDuplicateDropped: a replayed heartbeat (same BeatSeq) is
// acknowledged but processed zero times — no samples, no telemetry
// refresh, no mutation-sequence advance.
func TestHeartbeatDuplicateDropped(t *testing.T) {
	r := newRig(t, time.Minute)
	ag := r.addNode("n1", gpu.RTX3090)
	r.clock.Advance(2 * time.Minute)

	req := ag.HeartbeatRequest()
	if req.BeatSeq == 0 {
		t.Fatal("agent built a beat without a sequence number")
	}
	if resp, err := r.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("first delivery = %+v, %v", resp, err)
	}
	samples := func() int { return heldSamples(r.coord.DB()) }
	before, samplesBefore := r.coord.DB().CurrentLSN(), samples()
	for i := 0; i < 3; i++ {
		resp, err := r.coord.Heartbeat(req)
		if err != nil || !resp.Acknowledged {
			t.Fatalf("duplicate delivery = %+v, %v", resp, err)
		}
	}
	if after := r.coord.DB().CurrentLSN(); after != before || samples() != samplesBefore {
		t.Fatalf("duplicate heartbeats mutated the store: LSN %d -> %d, samples %d -> %d",
			before, after, samplesBefore, samples())
	}
	// A genuinely new beat is still processed.
	if _, err := r.coord.Heartbeat(ag.HeartbeatRequest()); err != nil {
		t.Fatal(err)
	}
	if samples() == samplesBefore {
		t.Fatal("fresh beat was swallowed by the duplicate guard")
	}
}

// TestTelemetryBeatSamplesNameTheirDevice: a beat from a two-GPU node
// stores one point per metric per device, each naming its device, so
// two readings at one timestamp can be told apart.
func TestTelemetryBeatSamplesNameTheirDevice(t *testing.T) {
	r := newRig(t, time.Minute)
	ag := r.addNode("n1", gpu.RTX3090, gpu.RTX3090)
	req := ag.HeartbeatRequest()
	if len(req.Telemetry) != 2 || req.Telemetry[0].DeviceID == req.Telemetry[1].DeviceID {
		t.Fatalf("beat carries %+v, want readings of two devices", req.Telemetry)
	}
	before := heldSamples(r.coord.DB())
	if resp, err := r.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("beat = %+v, %v", resp, err)
	}
	got := r.coord.DB().ExportState().Samples[before:]
	if len(got) != 4 {
		t.Fatalf("one beat stored %d samples, want 4: %+v", len(got), got)
	}
	type key struct{ metric, device string }
	seen := map[key]bool{}
	for _, s := range got {
		seen[key{s.Metric, s.DeviceID}] = true
	}
	for _, tel := range req.Telemetry {
		for _, metric := range []string{"gpu_utilization", "gpu_memory_used_mib"} {
			if !seen[key{metric, tel.DeviceID}] {
				t.Fatalf("no %s sample for device %q among %+v", metric, tel.DeviceID, got)
			}
		}
	}
}

// TestHeartbeatSeqResetOnReregister: an agent restart restarts its beat
// counter; re-registration must clear the guard so the node is not
// permanently muted.
func TestHeartbeatSeqResetOnReregister(t *testing.T) {
	r := newRig(t, time.Minute)
	ag := r.addNode("n1", gpu.RTX3090)
	// Drive the counter well past 1.
	for i := 0; i < 5; i++ {
		if _, err := r.coord.Heartbeat(ag.HeartbeatRequest()); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart": a fresh agent process for the same machine, counter
	// back at one.
	ag2 := agent.New(agent.Config{MachineID: "n1", Kernel: "5.15"}, r.clock, []gpu.Spec{gpu.RTX3090}, r.ckpts, nil)
	defer ag2.Stop()
	ag2.SetEndpoints([]agent.Endpoint{{Link: linkTo(r.coord, ag2)}})
	if _, err := ag2.Join("inproc://n1", 1<<30); err != nil {
		t.Fatal(err)
	}
	req := ag2.HeartbeatRequest()
	if req.BeatSeq != 1 {
		t.Fatalf("restarted agent's first beat seq = %d", req.BeatSeq)
	}
	before := heldSamples(r.coord.DB())
	if resp, err := r.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("first beat after restart = %+v, %v", resp, err)
	}
	if heldSamples(r.coord.DB()) == before {
		t.Fatal("restarted agent's beats are muted by the stale guard")
	}
}

// TestJobUpdateDuplicateIsNoOp: a replayed terminal report must not
// re-stamp the record, advance the mutation sequence, or disturb the
// (long since closed) allocation.
func TestJobUpdateDuplicateIsNoOp(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)
	spec := workload.SmallCNN
	spec.TotalSteps = 50
	jobID := submitTraining(t, r, spec, 0)
	r.clock.Advance(2 * time.Minute) // completes and reports

	rec, err := r.coord.DB().GetJob(jobID)
	if err != nil || rec.State != db.JobCompleted {
		t.Fatalf("job = %+v, %v", rec, err)
	}
	before := r.coord.DB().CurrentLSN()
	for _, state := range []db.JobState{db.JobCompleted, db.JobFailed} { // a conflicting replay loses too
		if err := r.coord.JobUpdate(jobReport(r.ags["n1"], jobID, state)); err != nil {
			t.Fatalf("replayed %s report: %v", state, err)
		}
	}
	if after := r.coord.DB().CurrentLSN(); after != before {
		t.Fatalf("duplicate terminal reports mutated the store: LSN %d -> %d", before, after)
	}
	rec2, _ := r.coord.DB().GetJob(jobID)
	if rec2.State != db.JobCompleted || !rec2.FinishedAt.Equal(rec.FinishedAt) {
		t.Fatalf("record disturbed by duplicates: %+v vs %+v", rec2, rec)
	}
}

// TestHeartbeatRetryAfterReregisterNotSwallowed: a beat that bounced
// with Reregister (dead handle after a coordinator restart) was NOT
// processed, so retrying the identical request must bounce again — not
// be acknowledged as a duplicate of a beat that never landed.
func TestHeartbeatRetryAfterReregisterNotSwallowed(t *testing.T) {
	secret := []byte("shared-coordinator-secret")
	clock := simclock.NewSim(t0)
	store := db.New(0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord1, err := New(Config{HeartbeatInterval: time.Minute, AuthSecret: secret},
		clock, store, ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := agent.New(agent.Config{MachineID: "n1", Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090}, ckpts, nil)
	defer ag.Stop()
	ag.SetEndpoints([]agent.Endpoint{{Link: linkTo(coord1, ag)}})
	if _, err := ag.Join("inproc://n1", 1<<30); err != nil {
		t.Fatal(err)
	}
	coord1.Stop()

	// The successor recovered the store (same records, same secret) but
	// has no transport to the agent yet.
	coord2, err := New(Config{HeartbeatInterval: time.Minute, AuthSecret: secret},
		clock, store, ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Stop()
	req := ag.HeartbeatRequest()
	hb1, err := coord2.Heartbeat(req)
	if err != nil || !hb1.Reregister {
		t.Fatalf("first delivery = %+v, %v (want Reregister)", hb1, err)
	}
	// The response was lost; the transport retries the identical beat.
	hb2, err := coord2.Heartbeat(req)
	if err != nil || !hb2.Reregister {
		t.Fatalf("retried delivery = %+v, %v — the bounced beat was swallowed as a duplicate", hb2, err)
	}
}
