package core

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/workload"
)

// TestHeartbeatKillsOrphanCopy: a node that kept executing a job
// through a control-plane outage, while the platform migrated that job
// elsewhere, must have its stale copy killed by the next heartbeat's
// reconciliation — one job must never run twice.
func TestHeartbeatKillsOrphanCopy(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, err := r.coord.db.GetJob(jobID)
	if err != nil || rec.State != db.JobRunning || rec.NodeID != "n1" {
		t.Fatalf("job = %+v, %v (want running on n1)", rec, err)
	}

	// Simulate the platform's view moving on without the agent hearing
	// about it: the coordinator requeues and re-places the job on n2,
	// as sweep would for an unreachable n1. The copy on n1 lives on.
	_ = r.coord.db.CloseAllocation(jobID, r.clock.Now())
	_ = r.coord.db.UpdateJob(jobID, func(j *db.JobRecord) {
		j.State = db.JobPending
		j.NodeID, j.DeviceID = "", ""
	})
	r.coord.trySchedule()
	moved, _ := r.coord.db.GetJob(jobID)
	if moved.State != db.JobRunning || moved.NodeID != "n2" {
		t.Fatalf("job after re-placement = %+v (want running on n2)", moved)
	}
	if len(ag1.Status().RunningJobs) != 1 {
		t.Fatal("n1 should still hold the orphan copy")
	}

	// Once the new placement has outlived the report-skew grace, the
	// next heartbeat reporting the orphan gets it killed.
	r.clock.Advance(2 * time.Minute)
	if _, err := r.coord.Heartbeat(ag1.HeartbeatRequest()); err != nil {
		t.Fatal(err)
	}
	if n := len(ag1.Status().RunningJobs); n != 0 {
		t.Fatalf("orphan survived reconciliation: %d jobs on n1", n)
	}
	// The migrated placement is untouched.
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning || after.NodeID != "n2" {
		t.Fatalf("reconciliation disturbed the live placement: %+v", after)
	}
}

// TestHeartbeatRequeuesLostPlacement: a node that loses power and
// returns inside the missed-heartbeat window (so the sweep never
// fires) lost its workloads. Its next heartbeat — empty running-job
// report, devices free — must requeue the placements the platform
// still believes are running there.
func TestHeartbeatRequeuesLostPlacement(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.State != db.JobRunning || rec.NodeID != "n1" {
		t.Fatalf("job = %+v (want running on n1)", rec)
	}

	// Power blip: everything on n1 dies, silently. Advance past the
	// placement grace but stay inside the missed threshold.
	r.clock.Advance(2 * time.Minute)
	ag1.KillSwitch()

	if _, err := r.coord.Heartbeat(ag1.HeartbeatRequest()); err != nil {
		t.Fatal(err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.NodeID == "n1" {
		t.Fatalf("lost placement not recovered: %+v", after)
	}
	// The requeue frees n1's device and the scheduling pass re-places
	// the job (n2 is free), so it must be running again somewhere.
	if after.State != db.JobRunning && after.State != db.JobPending {
		t.Fatalf("job in state %s after reconciliation", after.State)
	}
}

// TestHeartbeatProtectsFreshPlacement: a job placed moments ago must
// NOT be requeued just because the agent's in-flight report predates
// it — and its device flag must survive the stale telemetry.
func TestHeartbeatProtectsFreshPlacement(t *testing.T) {
	r := newRig(t, time.Minute)
	ag1 := r.addNode("n1", gpu.RTX3090)

	// Build the report BEFORE the job exists: the stale-report race.
	stale := ag1.HeartbeatRequest()

	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.State != db.JobRunning {
		t.Fatalf("job = %+v", rec)
	}
	if _, err := r.coord.Heartbeat(stale); err != nil {
		t.Fatal(err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning || after.NodeID != "n1" {
		t.Fatalf("fresh placement requeued by stale report: %+v", after)
	}
	node, _ := r.coord.db.GetNode("n1")
	if !node.GPUs[0].Allocated {
		t.Fatal("stale report freed the fresh placement's device")
	}
}

// TestJobUpdateFromStaleNodeIgnored: a terminal report from a node the
// job no longer runs on must not flip the record or free the new
// host's device — and it is answered, so the sender stops re-sending.
func TestJobUpdateFromStaleNodeIgnored(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)
	jobID := submitTraining(t, r, workload.SmallCNN, 60)
	rec, _ := r.coord.db.GetJob(jobID)
	if rec.NodeID != "n1" {
		t.Fatalf("job on %s", rec.NodeID)
	}
	other := r.addNode("n2", gpu.RTX3090)

	if err := r.coord.JobUpdate(jobReport(other, jobID, db.JobCompleted)); err != nil {
		t.Fatalf("stale report not answered: %v", err)
	}
	after, _ := r.coord.db.GetJob(jobID)
	if after.State != db.JobRunning {
		t.Fatalf("stale completion flipped job to %s", after.State)
	}
	// The genuine host's report still lands.
	if err := r.coord.JobUpdate(jobReport(r.ags["n1"], jobID, db.JobCompleted)); err != nil {
		t.Fatal(err)
	}
	after, _ = r.coord.db.GetJob(jobID)
	if after.State != db.JobCompleted {
		t.Fatalf("genuine completion dropped: %s", after.State)
	}
}

// TestStoppedCoordinatorIsFenced: deferred work (sweeps, scheduling,
// migration finishes) fired after Stop must not touch agents or the
// database — the zombie-coordinator fence the chaos kill/restart
// scenario depends on.
func TestStoppedCoordinatorIsFenced(t *testing.T) {
	r := newRig(t, time.Minute)
	r.addNode("n1", gpu.RTX3090)

	// A pending job that would schedule instantly if the fence leaked.
	spec := workload.SmallCNN
	huge := spec
	huge.GPUMemMiB = 1 << 30 // unplaceable now
	pendID, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: huge.GPUMemMiB, Training: &huge,
	})
	if err != nil {
		t.Fatal(err)
	}

	r.coord.Stop()
	_ = r.coord.db.UpdateJob(pendID, func(j *db.JobRecord) { j.GPUMemMiB = spec.GPUMemMiB })
	r.coord.trySchedule()
	r.coord.sweep()
	if rec, _ := r.coord.db.GetJob(pendID); rec.State != db.JobPending {
		t.Fatalf("stopped coordinator still scheduled: %s", rec.State)
	}
}

// cutLink is an agent's control link that a partition can cut: while
// cut, beats fail without reaching the coordinator. It keeps the
// answers of the beats that cross it.
type cutLink struct {
	agent.Link
	cut     bool
	answers []api.HeartbeatResponse
}

func (l *cutLink) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	if l.cut {
		return api.HeartbeatResponse{}, errors.New("control partition")
	}
	resp, err := l.Link.Heartbeat(req)
	if err == nil {
		l.answers = append(l.answers, resp)
	}
	return resp, err
}

// TestSweptNodeReturnsByRegistering: a control partition longer than
// the detection threshold gets a node swept unreachable while its agent
// keeps running, and its job migrates. The sweep ends the node's
// session, and on heal the node comes back one way: its next beat is
// answered Reregister, the agent registers (one node.registered, then
// one node.returned), and the registration, which lists the jobs the
// agent runs, kills the orphan copy of the migrated job. The failure
// detector reported the node once, however many sweeps the partition
// outlasted.
func TestSweptNodeReturnsByRegistering(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	r.addNode("n2", gpu.RTX3090)
	jobID := submitTraining(t, r, workload.SmallCNN, 15)
	r.clock.Advance(time.Minute)
	if st, _ := r.coord.JobStatus(jobID); st.NodeID != "n1" {
		t.Fatalf("job = %+v, want it on n1", st)
	}

	link := &cutLink{Link: linkTo(r.coord, ag1), cut: true}
	ag1.SetEndpoints([]agent.Endpoint{{Link: link}})
	r.clock.Advance(5 * time.Minute) // thirty sweeps, ten intervals past the threshold
	if rec, err := r.coord.db.GetNode("n1"); err != nil || rec.Status != db.NodeUnreachable {
		t.Fatalf("n1 = %+v, %v; want unreachable", rec, err)
	}
	if st, _ := r.coord.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "n2" {
		t.Fatalf("job = %+v, want it running on n2", st)
	}
	if _, ok := ag1.RunningJob(jobID); !ok {
		t.Fatal("the partitioned agent stopped its copy of the job")
	}
	if r.coord.handle("n1") != nil {
		t.Error("the sweep left n1's agent handle behind")
	}
	if r.coord.hb.Beat("n1", r.clock.Now()) {
		t.Error("the failure detector still watches swept n1")
	}

	mark := len(r.coord.Trace().Events())
	link.cut = false
	r.clock.Advance(10 * time.Second) // the first beat across the healed link
	if len(link.answers) != 1 || !link.answers[0].Reregister || link.answers[0].Acknowledged {
		t.Fatalf("answers to n1's beats after the heal = %+v, want one Reregister", link.answers)
	}
	var membership []string
	for _, ev := range r.coord.Trace().Events()[mark:] {
		if ev.Node == "n1" && strings.HasPrefix(ev.Kind, "node.") {
			membership = append(membership, ev.Kind)
		}
	}
	if want := []string{obs.KindNodeRegistered, obs.KindNodeReturned}; !slices.Equal(membership, want) {
		t.Fatalf("n1's membership events after the heal = %v, want %v", membership, want)
	}
	if _, ok := ag1.RunningJob(jobID); ok {
		t.Fatal("the orphan copy survived the registration")
	}

	r.clock.Advance(10 * time.Second) // the new session's first beat
	if len(link.answers) != 2 || !link.answers[1].Acknowledged {
		t.Fatalf("answers to n1's beats = %+v, want the second acknowledged", link.answers)
	}
	if st, _ := r.coord.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "n2" {
		t.Fatalf("job = %+v, want it still running on n2", st)
	}
	swept := 0
	for _, ev := range r.coord.Trace().Events() {
		if ev.Node == "n1" && ev.Kind == obs.KindNodeUnreachable {
			swept++
		}
	}
	if swept != 1 {
		t.Fatalf("n1 reported unreachable %d times, want once", swept)
	}
}

// sweepInClassify is a store whose first job lookup runs sweep first:
// it opens the window between a beat's loadNode and its commit, in
// which the sweep can end the node's session.
type sweepInClassify struct {
	db.Store
	sweep func()
}

func (s *sweepInClassify) GetJob(id string) (db.JobRecord, error) {
	if f := s.sweep; f != nil {
		s.sweep = nil
		f()
	}
	return s.Store.GetJob(id)
}

// TestBeatRacingSweepKeepsNodeOut: a beat that passed loadNode before
// its node was swept must not write the node back into service. The
// record keeps its unreachable status and the beat is answered
// Reregister, the one way back.
func TestBeatRacingSweepKeepsNodeOut(t *testing.T) {
	store := &sweepInClassify{Store: db.New(0)}
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	b.clock.Advance(10 * time.Second)
	store.sweep = func() {
		_ = b.coord.nodeLeaves(obs.Event{Kind: obs.KindNodeUnreachable, Time: b.clock.Now(), Node: "n1"},
			db.NodeUnreachable, reasonEmergency)
	}
	req := b.beatReq("n1")
	req.RunningJobs = []string{"job-unknown"} // classify looks it up
	resp, err := b.coord.Heartbeat(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acknowledged || !resp.Reregister {
		t.Fatalf("beat racing the sweep = %+v, want Reregister", resp)
	}
	if rec, err := store.GetNode("n1"); err != nil || rec.Status != db.NodeUnreachable {
		t.Fatalf("n1 = %+v, %v; want it still unreachable", rec, err)
	}
}

// TestRequeuedJobOnSweptHostRunsOnce: a job requeued while its only
// host was swept (no target to migrate to) keeps running on the
// partitioned agent. After the heal no launch of it is in flight, so
// the new session's first beat kills that copy as an orphan, and the
// freed device takes the job again from the queue.
func TestRequeuedJobOnSweptHostRunsOnce(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := r.addNode("n1", gpu.RTX3090)
	jobID := submitTraining(t, r, workload.SmallCNN, 15)
	r.clock.Advance(time.Minute)

	link := &cutLink{Link: linkTo(r.coord, ag1), cut: true}
	ag1.SetEndpoints([]agent.Endpoint{{Link: link}})
	r.clock.Advance(5 * time.Minute)
	if st, _ := r.coord.JobStatus(jobID); st.State != db.JobPending || st.NodeID != "" {
		t.Fatalf("job = %+v, want pending with no node", st)
	}
	if _, ok := ag1.RunningJob(jobID); !ok {
		t.Fatal("the partitioned agent stopped its copy of the job")
	}

	mark := len(r.coord.Trace().Events())
	link.cut = false
	r.clock.Advance(2 * time.Minute)
	killed := false
	for _, ev := range r.coord.Trace().Events()[mark:] {
		killed = killed || ev.Kind == obs.KindJobKilled && ev.Job == jobID && ev.Node == "n1"
	}
	if !killed {
		t.Fatal("the stale copy on n1 was never killed")
	}
	if st, _ := r.coord.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "n1" {
		t.Fatalf("job = %+v, want it running on n1 again", st)
	}
	if _, ok := ag1.RunningJob(jobID); !ok {
		t.Fatal("n1 does not run the job")
	}
}

// holdInClassify is a store whose next job lookup, once armed, returns
// the record as it read it only after hold returns.
type holdInClassify struct {
	db.Store
	mu   sync.Mutex
	hold func()
}

func (s *holdInClassify) GetJob(id string) (db.JobRecord, error) {
	s.mu.Lock()
	hold := s.hold
	s.hold = nil
	s.mu.Unlock()
	rec, err := s.Store.GetJob(id)
	if hold != nil {
		hold()
	}
	return rec, err
}

// beatInLaunch is an agent handle whose launch, once the agent has
// started the job, has a node beat in another goroutine. With a release
// channel it returns once that beat has read a job's record, which the
// beat then holds until release; without one, once the beat is done.
type beatInLaunch struct {
	AgentHandle
	store   *holdInClassify
	beat    func() api.HeartbeatResponse
	release chan struct{}
	done    chan api.HeartbeatResponse
}

func (h beatInLaunch) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	resp, err := h.AgentHandle.Launch(req)
	read, beaten := make(chan struct{}), make(chan struct{})
	if h.release != nil {
		h.store.mu.Lock()
		h.store.hold = func() { close(read); <-h.release }
		h.store.mu.Unlock()
	}
	go func() { h.done <- h.beat(); close(beaten) }()
	select {
	case <-read:
	case <-beaten:
	}
	return resp, err
}

// TestBeatReadingBeforeCommitSparesLaunch: a beat that reads a job's
// record as pending before place commits it, and looks for the launch
// mark only after place has cleared it, must not take the fresh
// placement for an orphan. The job keeps running on n1.
func TestBeatReadingBeforeCommitSparesLaunch(t *testing.T) {
	store := &holdInClassify{Store: db.New(0)}
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	h := beatInLaunch{store: store, release: make(chan struct{}), done: make(chan api.HeartbeatResponse, 1)}
	var jobID string
	h.beat = func() api.HeartbeatResponse {
		req := b.beatReq("n1")
		req.RunningJobs = []string{jobID}
		resp, _ := b.coord.Heartbeat(req)
		return resp
	}
	b.coord.mu.Lock()
	h.AgentHandle = b.coord.agents["n1"]
	b.coord.agents["n1"] = h
	b.coord.mu.Unlock()

	b.coord.mu.Lock()
	jobID = fmt.Sprintf("job-%06d", b.coord.jobSeq+1)
	b.coord.mu.Unlock()
	spec := workload.SmallCNN
	id, err := b.coord.SubmitJob(api.SubmitJobRequest{User: "alice", Kind: "batch",
		ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: spec.GPUMemMiB, Training: &spec})
	if err != nil || id != jobID {
		t.Fatalf("submitted %q, %v; want %q", id, err, jobID)
	}
	close(h.release) // place has committed and cleared its mark
	select {
	case <-h.done:
	case <-time.After(10 * time.Second):
		t.Fatal("the beat never finished")
	}
	if st, _ := b.coord.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "n1" {
		t.Fatalf("job = %+v, want running on n1", st)
	}
	if _, ok := b.ags["n1"].RunningJob(jobID); !ok {
		t.Fatal("the beat killed the fresh placement as an orphan")
	}
}

// TestSourceBeatDuringMoveSparesJob: a predictive drain kills the job
// at its source and launches it on the target; the source's beat, which
// no longer reports the job, arrives while that launch is in flight and
// the record still reads running on the source. The beat leaves the job
// to its move, which lands it on the target.
func TestSourceBeatDuringMoveSparesJob(t *testing.T) {
	store := &holdInClassify{Store: db.New(0)}
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	spec := workload.SmallCNN
	id, err := b.coord.SubmitJob(api.SubmitJobRequest{User: "alice", Kind: "batch",
		ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: spec.GPUMemMiB, Training: &spec})
	if err != nil {
		t.Fatal(err)
	}
	b.addSilentNode("n2")
	b.clock.Advance(2 * time.Minute) // past the placement grace
	var once sync.Once
	h := beatInLaunch{store: store, done: make(chan api.HeartbeatResponse, 2), beat: func() (resp api.HeartbeatResponse) {
		once.Do(func() { resp, _ = b.coord.Heartbeat(b.beatReq("n1")) })
		return resp
	}}
	b.coord.mu.Lock()
	h.AgentHandle = b.coord.agents["n2"]
	b.coord.agents["n2"] = h
	b.coord.mu.Unlock()

	b.coord.drainUnhealthy("n1", b.clock.Now())
	if resp := <-h.done; !resp.Acknowledged {
		t.Fatalf("the source's beat = %+v, want it acknowledged", resp)
	}
	if st, _ := b.coord.JobStatus(id); st.State != db.JobRunning || st.NodeID != "n2" || st.Migrations != 1 {
		t.Fatalf("job = %+v, want running on n2 after one migration", st)
	}
	if _, ok := b.ags["n2"].RunningJob(id); !ok {
		t.Fatal("n2 does not run the job")
	}
	if n := obs.Kinds(b.coord.Trace().Events())[obs.KindJobRequeued]; n != 0 {
		t.Fatalf("%d requeues; the beat took the moving job for lost", n)
	}
}

// TestTelemetryCannotFreeHeldDevice: a beat's telemetry is no writer of
// device occupancy. A job running past the placement grace, and still
// in its node's report, keeps its device held though the beat's
// telemetry reads the device free, and the pass that beat runs places
// nothing on it.
func TestTelemetryCannotFreeHeldDevice(t *testing.T) {
	r := newBatchRig(t, 4)
	fake := newFakeAgent("gpu0")
	reg, err := r.coord.Register(api.RegisterRequest{MachineID: "n0", Addr: "fake://n0",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}}}, fake)
	if err != nil {
		t.Fatal(err)
	}
	held := r.submit(t, 1)[0]
	// The fake would take a second job on gpu0: what the coordinator
	// decides is what is under test.
	fake.mu.Lock()
	fake.inUse["gpu0"] = false
	fake.mu.Unlock()
	queued := r.submit(t, 1)[0]
	r.coord.clock.(*simclock.Sim).Advance(r.coord.cfg.HeartbeatInterval + time.Second)

	if _, err := r.coord.Heartbeat(api.HeartbeatRequest{MachineID: "n0", Token: reg.Token, BeatSeq: 1,
		RunningJobs: []string{held},
		Telemetry:   []gpu.Telemetry{{DeviceID: "gpu0", Model: "RTX 3090", Allocated: false}},
	}); err != nil {
		t.Fatal(err)
	}
	if node, _ := r.coord.db.GetNode("n0"); !node.GPUs[0].Allocated {
		t.Error("the beat's telemetry freed the device a running job holds")
	}
	if st, _ := r.coord.JobStatus(queued); st.State != db.JobPending {
		t.Errorf("queued job = %+v, want pending: %s runs on n0/gpu0", st, held)
	}
	if len(fake.launched) != 1 {
		t.Errorf("n0 launched %v, want only %s", fake.launched, held)
	}
}

// refusalCounter is a coordinator's handle on an agent that counts the
// launches the agent refuses.
type refusalCounter struct {
	AgentHandle
	refused *int
}

func (h refusalCounter) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	resp, err := h.AgentHandle.Launch(req)
	if err != nil {
		*h.refused++
	}
	return resp, err
}

// TestRegistrationKillsStaleCopy: a one-device node swept during a
// partition keeps running its job, which the platform requeues and
// checkpoints on. On heal the node registers listing that copy. Its
// device reads free in the store, so the registration's pass places the
// pending job there — the registration must kill the stale copy first,
// or the agent refuses the launch (the copy holds the device and
// started from another checkpoint) and the job waits for the first beat
// of the new session.
func TestRegistrationKillsStaleCopy(t *testing.T) {
	r := newRig(t, 10*time.Second)
	ag1 := agent.New(agent.Config{MachineID: "n1", Kernel: "5.15"}, r.clock, []gpu.Spec{gpu.RTX3090}, r.ckpts, nil)
	t.Cleanup(ag1.Stop)
	refused := 0
	hosts := &api.Hosts{}
	wire := &http.Client{Transport: hosts}
	hosts.Serve("n1", ag1.Handler())
	hosts.Serve("coordinator", r.coord.Handler(func(addr string) AgentHandle {
		return refusalCounter{AgentHandle: &agent.Client{BaseURL: addr, HTTPClient: wire}, refused: &refused}
	}))
	link := &cutLink{Link: &Client{BaseURL: "http://coordinator", HTTPClient: wire}}
	ag1.SetEndpoints([]agent.Endpoint{{Link: link}})
	if _, err := ag1.Join("inproc://n1", 1<<30); err != nil {
		t.Fatal(err)
	}
	jobID := submitTraining(t, r, workload.SmallCNN, 15)
	r.clock.Advance(time.Minute)

	link.cut = true
	r.clock.Advance(5 * time.Minute)
	if st, _ := r.coord.JobStatus(jobID); st.State != db.JobPending {
		t.Fatalf("job = %+v, want pending", st)
	}
	if _, ok := ag1.RunningJob(jobID); !ok {
		t.Fatal("the partitioned agent stopped its copy of the job")
	}

	link.cut = false
	for r.coord.handle("n1") == nil {
		r.clock.Advance(time.Second)
	}
	registered := r.clock.Now()
	if refused != 0 {
		t.Errorf("n1 refused %d launches", refused)
	}
	if rec, _ := r.coord.db.GetJob(jobID); rec.State != db.JobRunning || rec.NodeID != "n1" || !rec.PlacedAt.Equal(registered) {
		t.Fatalf("job = %+v, want it placed on n1 by the registration's pass at %v", rec, registered)
	}
	var killedAt time.Time
	for _, ev := range r.coord.Trace().Events() {
		if ev.Kind == obs.KindJobKilled && ev.Job == jobID && ev.Node == "n1" {
			killedAt = ev.Time
		}
	}
	if !killedAt.Equal(registered) {
		t.Fatalf("stale copy killed at %v, want at the registration, %v", killedAt, registered)
	}
}
