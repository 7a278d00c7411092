package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// fakeAgent is a scriptable AgentHandle: launches succeed on free
// devices unless the agent is set to refuse, tracking what ran.
type fakeAgent struct {
	mu       sync.Mutex
	devices  []string
	inUse    map[string]bool
	refuse   bool
	launched []string
	requests []api.LaunchRequest
}

func newFakeAgent(devices ...string) *fakeAgent {
	return &fakeAgent{devices: devices, inUse: make(map[string]bool)}
}

func (f *fakeAgent) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.refuse {
		return api.LaunchResponse{}, errors.New("fake: node refuses launches")
	}
	for _, d := range f.devices {
		if !f.inUse[d] {
			f.inUse[d] = true
			f.launched = append(f.launched, req.JobID)
			f.requests = append(f.requests, req)
			return api.LaunchResponse{ContainerID: "ctr-" + req.JobID, DeviceID: d}, nil
		}
	}
	return api.LaunchResponse{}, errors.New("fake: no free device")
}

func (f *fakeAgent) Kill(req api.KillRequest) error { return nil }

func (f *fakeAgent) Checkpoint(api.CheckpointRequest) (api.CheckpointResponse, error) {
	return api.CheckpointResponse{}, errors.New("fake: no checkpoints")
}

// batchRig is a coordinator wired to fakeAgents, bypassing the full
// agent stack so launch failures can be scripted.
type batchRig struct {
	coord *Coordinator
	fakes map[string]*fakeAgent
}

func newBatchRig(t *testing.T, batchSize int, nodeIDs ...string) *batchRig {
	t.Helper()
	clock := simclock.NewSim(t0)
	coord, err := New(Config{HeartbeatInterval: 10 * time.Second, BatchSize: batchSize},
		clock, db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	r := &batchRig{coord: coord, fakes: make(map[string]*fakeAgent)}
	for _, id := range nodeIDs {
		fake := newFakeAgent("gpu0")
		r.fakes[id] = fake
		_, err := coord.Register(api.RegisterRequest{
			MachineID: id, Addr: "fake://" + id,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		}, fake)
		if err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func (r *batchRig) submit(t *testing.T, n int) []string {
	t.Helper()
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := r.coord.SubmitJob(api.SubmitJobRequest{
			User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
			GPUMemMiB: 8192,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// TestBatchSchedulingDrainsQueue: one submission burst larger than the
// batch size still drains fully across cycles.
func TestBatchSchedulingDrainsQueue(t *testing.T) {
	nodes := make([]string, 6)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%d", i)
	}
	r := newBatchRig(t, 2, nodes...) // batch of 2, queue of 6
	ids := r.submit(t, 6)
	for _, id := range ids {
		st, err := r.coord.JobStatus(id)
		if err != nil || st.State != db.JobRunning {
			t.Fatalf("job %s = %+v, %v (want running)", id, st, err)
		}
	}
	// Each node got exactly one job — batching didn't pile onto one.
	for id, fake := range r.fakes {
		if len(fake.launched) != 1 {
			t.Fatalf("node %s launched %v, want exactly 1", id, fake.launched)
		}
	}
}

// TestBatchMemberFailureRollsBack: a node that accepts a placement but
// refuses the launch must not strand the job or any device — the job
// stays pending with no node recorded, the refusing node's device
// stays unallocated in the resource view, and other batch members
// commit normally.
func TestBatchMemberFailureRollsBack(t *testing.T) {
	r := newBatchRig(t, 8, "good", "bad")
	r.fakes["bad"].refuse = true
	ids := r.submit(t, 2)

	running, pending := 0, 0
	for _, id := range ids {
		st, err := r.coord.JobStatus(id)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case db.JobRunning:
			running++
			if st.NodeID != "good" {
				t.Fatalf("running job on %s, want good", st.NodeID)
			}
		case db.JobPending:
			pending++
			if st.NodeID != "" {
				t.Fatalf("pending job still bound to node %s", st.NodeID)
			}
		default:
			t.Fatalf("job %s in state %s", id, st.State)
		}
	}
	if running != 1 || pending != 1 {
		t.Fatalf("running=%d pending=%d, want 1/1", running, pending)
	}
	// The refusing node's device must not be marked allocated: the
	// failed member's reservation died with the batch.
	for _, n := range r.coord.Nodes() {
		if n.ID == "bad" && n.GPUs[0].Allocated {
			t.Fatal("failed launch stranded a device reservation on bad")
		}
	}
	// Capacity returning later picks the pending job up.
	r.fakes["bad"].mu.Lock()
	r.fakes["bad"].refuse = false
	r.fakes["bad"].mu.Unlock()
	r.coord.trySchedule()
	for _, id := range ids {
		st, _ := r.coord.JobStatus(id)
		if st.State != db.JobRunning {
			t.Fatalf("job %s = %s after capacity returned, want running", id, st.State)
		}
	}
}

// TestBatchRespectsPriorityOrder: higher-priority submissions win the
// devices when the batch is bigger than capacity.
func TestBatchRespectsPriorityOrder(t *testing.T) {
	r := newBatchRig(t, 8, "n0")
	// Stop the single node from scheduling during submission by pausing
	// launches, so all jobs queue and one batch decides the order.
	r.fakes["n0"].refuse = true
	var low, high string
	var err error
	if low, err = r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if high, err = r.coord.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, Priority: 9,
	}); err != nil {
		t.Fatal(err)
	}
	r.fakes["n0"].mu.Lock()
	r.fakes["n0"].refuse = false
	r.fakes["n0"].mu.Unlock()
	r.coord.trySchedule()
	st, _ := r.coord.JobStatus(high)
	if st.State != db.JobRunning {
		t.Fatalf("high-priority job = %s, want running", st.State)
	}
	st, _ = r.coord.JobStatus(low)
	if st.State != db.JobPending {
		t.Fatalf("low-priority job = %s, want pending", st.State)
	}
}

// TestRecoveredStorePlacesWithoutReset: a store filled only through
// ImportState + Apply — the crash-recovery and follower paths — moves
// its node generation like any live write, so a coordinator whose
// scheduler already cached the store's earlier (empty) node table
// places onto the recovered nodes with no rebuild step anywhere.
func TestRecoveredStorePlacesWithoutReset(t *testing.T) {
	gpus := func(allocated bool) []db.GPUInfo {
		return []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090", MemoryMiB: 24576,
			CapabilityMajor: 8, CapabilityMinor: 6, Allocated: allocated}}
	}
	// The leader's history: a full node and a queued job reach the
	// snapshot; the device freeing up reaches only the log.
	leader := db.New(0)
	leader.UpsertNode(db.NodeRecord{ID: "n0", Status: db.NodeActive, GPUs: gpus(true), RegisteredAt: t0})
	if err := leader.InsertJob(db.JobRecord{ID: "job-1", User: "alice", Kind: "batch", State: db.JobPending,
		GPUMemMiB: 8192, ImageName: "pytorch/pytorch:2.3-cuda12", SubmittedAt: t0}); err != nil {
		t.Fatal(err)
	}
	image := leader.ExportState()
	var log []db.Mutation
	leader.SetMutationHook(func(m db.Mutation) { log = append(log, m) })
	_ = leader.UpdateNode("n0", func(n *db.NodeRecord) { n.GPUs[0].Allocated = false })

	store := db.New(0)
	coord, err := New(Config{HeartbeatInterval: 10 * time.Second}, simclock.NewSim(t0), store,
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	// Stamp the scheduler's cache against the still-empty store.
	coord.sched.Place([]scheduler.Request{{JobID: "probe"}}, store, t0)

	store.ImportState(image)
	for _, m := range log {
		if err := store.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	fake := newFakeAgent("gpu0")
	coord.mu.Lock()
	coord.agents["n0"] = fake
	coord.mu.Unlock()
	coord.recoverState()

	if st, err := coord.JobStatus("job-1"); err != nil || st.State != db.JobRunning || st.NodeID != "n0" {
		t.Fatalf("recovered job = %+v, %v (want running on n0)", st, err)
	}
	if probs := coord.AuditSchedulerPool(); len(probs) != 0 {
		t.Fatalf("candidate cache after recovery: %v", probs)
	}
}

// TestLaunchRequestSurvivesRecovery: the relaunch spec is the job
// record's own, so the launch an agent receives for a job this
// coordinator admitted and the one it receives from a coordinator that
// only ever saw the record (ExportState → fresh store → ImportState →
// recoverState) are field-for-field the same.
func TestLaunchRequestSurvivesRecovery(t *testing.T) {
	spec := workload.SmallCNN
	spec.TotalSteps = 20000 // past the scheduler's long-running line
	register := func(c *Coordinator) *fakeAgent {
		t.Helper()
		fake := newFakeAgent("gpu0")
		if _, err := c.Register(api.RegisterRequest{
			MachineID: "n0", Addr: "fake://n0",
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		}, fake); err != nil {
			t.Fatal(err)
		}
		return fake
	}

	// Admitted here, queued (no node yet), exported, then placed.
	first := newBatchRig(t, 4)
	jobID, err := first.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		Entrypoint: []string{"python", "train.py"}, Priority: 3,
		GPUMemMiB: 8192, CapabilityMajor: 7, CapabilityMinor: 5,
		CheckpointIntervalSec: 30, StoragePrefs: []string{"nas", "s3"},
		Training: &spec, SessionSeconds: 900,
	})
	if err != nil {
		t.Fatal(err)
	}
	image := first.coord.db.ExportState()
	before := register(first.coord)

	store := db.New(0)
	store.ImportState(image)
	second, err := New(Config{HeartbeatInterval: 10 * time.Second, BatchSize: 4}, simclock.NewSim(t0),
		store, checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(second.Stop)
	second.recoverState()
	after := register(second)

	if len(before.requests) != 1 || len(after.requests) != 1 || before.requests[0].JobID != jobID {
		t.Fatalf("launches: before %+v, after %+v", before.requests, after.requests)
	}
	if !reflect.DeepEqual(before.requests[0], after.requests[0]) {
		t.Fatalf("launch request changed across recovery:\nbefore %+v\nafter  %+v",
			before.requests[0], after.requests[0])
	}
	if got := before.requests[0]; got.Training == nil || *got.Training != spec ||
		got.ImageName == "" || len(got.Entrypoint) != 2 || got.CheckpointIntervalSec != 30 ||
		got.SessionSeconds != 900 || got.Kind != "batch" {
		t.Fatalf("launch request lost its spec: %+v", got)
	}
}

// gatedAgent is a fakeAgent whose Launch announces itself on entered
// and then waits for one token on release: a pass held open on demand.
// With refuseOnce set the first launch let through is refused, which
// ends the pass it belongs to (a cycle that commits nothing).
type gatedAgent struct {
	*fakeAgent
	entered    chan string
	release    chan struct{}
	refuseOnce atomic.Bool
}

func (g *gatedAgent) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	g.entered <- req.JobID
	<-g.release
	if g.refuseOnce.CompareAndSwap(true, false) {
		return api.LaunchResponse{}, errors.New("gated: refused once")
	}
	return g.fakeAgent.Launch(req)
}

// newGatedRig is a coordinator with one two-device node behind a
// gatedAgent.
func newGatedRig(t *testing.T) (*batchRig, *gatedAgent) {
	t.Helper()
	r := newBatchRig(t, 8)
	// Sized to the launches a test makes, so the agent never blocks on
	// an unread announcement.
	g := &gatedAgent{fakeAgent: newFakeAgent("gpu0", "gpu1"),
		entered: make(chan string, 4), release: make(chan struct{}, 4)}
	gpus := make([]db.GPUInfo, 2)
	for i := range gpus {
		gpus[i] = db.GPUInfo{DeviceID: fmt.Sprintf("gpu%d", i), Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}
	}
	if _, err := r.coord.Register(api.RegisterRequest{MachineID: "n0", Addr: "fake://n0", GPUs: gpus}, g); err != nil {
		t.Fatal(err)
	}
	return r, g
}

// holdPass submits the first job from a goroutine of its own and
// returns once its pass is inside the launch; done closes when that
// SubmitJob has returned, that is when the pass has ended and handed
// over.
func (r *batchRig) holdPass(t *testing.T, g *gatedAgent) (done chan struct{}) {
	t.Helper()
	done = make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.coord.SubmitJob(api.SubmitJobRequest{
			User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
		}); err != nil {
			t.Error(err)
		}
	}()
	if got := <-g.entered; got != "job-000001" {
		t.Fatalf("the held pass launches %s, want job-000001", got)
	}
	return done
}

// returns fails the test unless fn comes back while a pass is held open.
func returns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waited for the running placement pass", what)
	}
}

func (r *batchRig) passIdle() bool {
	r.coord.mu.Lock()
	defer r.coord.mu.Unlock()
	return !r.coord.passRunning && !r.coord.passWanted
}

// TestTryScheduleOnePassAtATime: while one pass is inside a launch, a
// second caller returns at once and launches nothing; the job it
// submitted is placed with no further call from outside; every job is
// launched exactly once; and Stop leaves no pass behind.
func TestTryScheduleOnePassAtATime(t *testing.T) {
	bothOnce := []string{"job-000001", "job-000002"}

	t.Run("request during a pass", func(t *testing.T) {
		r, g := newGatedRig(t)
		held := r.holdPass(t, g)
		returns(t, "SubmitJob", func() { r.submit(t, 1) })
		returns(t, "trySchedule", r.coord.trySchedule)
		if len(g.entered) != 0 {
			t.Fatalf("a second pass launched %s while the first was running", <-g.entered)
		}
		if st, _ := r.coord.JobStatus(bothOnce[1]); st.State != db.JobPending {
			t.Fatalf("job submitted during the pass is %s, want pending", st.State)
		}
		g.release <- struct{}{}
		g.release <- struct{}{}
		<-held
		r.coord.passes.Wait()
		for _, id := range bothOnce {
			if st, _ := r.coord.JobStatus(id); st.State != db.JobRunning {
				t.Errorf("job %s is %s, want running", id, st.State)
			}
		}
		if !reflect.DeepEqual(g.launched, bothOnce) {
			t.Errorf("launched %v, want %v", g.launched, bothOnce)
		}
		if !r.passIdle() {
			t.Error("a pass is still marked running or wanted after the queue drained")
		}
	})

	t.Run("stop during the first pass", func(t *testing.T) {
		r, g := newGatedRig(t)
		g.refuseOnce.Store(true) // or the held pass's next cycle places the second job itself
		held := r.holdPass(t, g)
		returns(t, "SubmitJob", func() { r.submit(t, 1) })
		returns(t, "Stop", r.coord.Stop)
		g.release <- struct{}{}
		<-held
		r.coord.passes.Wait()
		if !r.passIdle() {
			t.Error("a stopped coordinator still has a pass running or wanted")
		}
		if len(g.entered) != 0 || len(g.launched) != 0 {
			t.Errorf("a stopped coordinator launched %v", g.launched)
		}
	})

	t.Run("stop during the follow-up pass", func(t *testing.T) {
		r, g := newGatedRig(t)
		g.refuseOnce.Store(true)
		held := r.holdPass(t, g)
		returns(t, "SubmitJob", func() { r.submit(t, 1) })
		g.release <- struct{}{}
		<-held
		// The refusal ended the held pass; the request recorded during
		// it is now a pass on the coordinator's own goroutine, inside
		// its first launch. Stop returns only once that goroutine is
		// gone.
		<-g.entered
		g.release <- struct{}{}
		g.release <- struct{}{}
		r.coord.Stop()
		if !r.passIdle() {
			t.Error("Stop returned with the follow-up pass still running")
		}
		if !reflect.DeepEqual(g.launched, bothOnce) {
			t.Errorf("launched %v, want %v", g.launched, bothOnce)
		}
	})
}
