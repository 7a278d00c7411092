package agent

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

func TestSetEndpointsAndRedirect(t *testing.T) {
	r := newRig(t)
	a, b := &scriptedLink{}, &scriptedLink{}
	r.agent.SetEndpoints([]Endpoint{{ID: "coord-a", Link: a}, {ID: "coord-b", Link: b}})
	if got := r.agent.ActiveEndpoint().ID; got != "coord-a" {
		t.Fatalf("active = %q", got)
	}
	// Round-robin through the set.
	for _, want := range []string{"coord-b", "coord-a"} {
		if !r.agent.Redirect() {
			t.Fatal("redirect failed")
		}
		if got := r.agent.ActiveEndpoint().ID; got != want {
			t.Fatalf("active after redirect = %q, want %q", got, want)
		}
	}
	// Job reports flow to the active endpoint only.
	spec := workload.SmallCNN
	spec.TotalSteps = 50 // finishes in a few seconds of sim time
	launchTraining(t, r, "j1", spec, 0)
	r.clock.Advance(time.Minute)
	if len(a.updates) == 0 || len(b.updates) != 0 {
		t.Fatalf("updates a=%d b=%d", len(a.updates), len(b.updates))
	}
}

func TestRedirectWithoutAlternativesFails(t *testing.T) {
	r := newRig(t)
	if r.agent.Redirect() {
		t.Fatal("redirect succeeded with a single endpoint")
	}
}

func TestAgentFencesStaleLeaderEpoch(t *testing.T) {
	r := newRig(t)
	r.agent.ObserveEpoch(3)
	if got := r.agent.CoordEpoch(); got != 3 {
		t.Fatalf("observed epoch = %d", got)
	}
	// A launch from an older term must be rejected: the sender was
	// deposed and its placement decisions are stale.
	spec := workload.SmallCNN
	_, err := r.agent.Launch(api.LaunchRequest{
		Envelope: api.Envelope{LeaderEpoch: 2},
		JobID:    "jz", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("stale launch admitted: %v", err)
	}
	// Same fence on kills.
	launchTraining(t, r, "j1", workload.SmallCNN, 0)
	if err := r.agent.KillJob(api.KillRequest{
		Envelope: api.Envelope{LeaderEpoch: 2}, JobID: "j1",
	}); !errors.Is(err, ErrStaleLeader) {
		t.Fatalf("stale kill admitted: %v", err)
	}
	// The current term (and a newer one, which raises the floor) pass.
	if err := r.agent.KillJob(api.KillRequest{
		Envelope: api.Envelope{LeaderEpoch: 4}, JobID: "j1",
	}); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.CoordEpoch(); got != 4 {
		t.Fatalf("epoch floor not raised: %d", got)
	}
	// Zero epoch (legacy/standalone coordinator) is always admitted.
	launchTraining(t, r, "j2", workload.SmallCNN, 0)
	if err := r.agent.KillJob(api.KillRequest{JobID: "j2"}); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatAndRegisterCarryEnvelope(t *testing.T) {
	r := newRig(t)
	r.agent.ObserveEpoch(5)
	hb := r.agent.HeartbeatRequest()
	if hb.ProtocolVersion != api.ProtocolVersion || hb.LeaderEpoch != 5 {
		t.Fatalf("heartbeat envelope = %+v", hb.Envelope)
	}
	reg := r.agent.RegisterRequest("inproc://x", 1<<30)
	if reg.ProtocolVersion != api.ProtocolVersion || reg.LeaderEpoch != 5 {
		t.Fatalf("register envelope = %+v", reg.Envelope)
	}
}

// scriptedLink is an agent.Link that answers from a script: each
// Heartbeat pops the next reply, Register always succeeds with the
// current token, epoch and interval (zero: the agent starts no heartbeat
// loop, and the test beats by hand), a job report fails with the next of
// updateErrs while any are left, departures succeed. It records what
// reached it: updates holds the answered reports, attempts counts them
// all.
type scriptedLink struct {
	beats      []func(api.HeartbeatRequest) (api.HeartbeatResponse, error)
	epoch      uint64
	interval   time.Duration
	registers  []api.RegisterRequest
	beatSeqs   []uint64
	updateErrs []error
	attempts   int
	updates    []api.JobUpdateRequest
	departs    []api.DepartRequest
}

func (l *scriptedLink) Register(req api.RegisterRequest) (api.RegisterResponse, error) {
	l.registers = append(l.registers, req)
	return api.RegisterResponse{
		LeaderEpoch:       l.epoch,
		Token:             fmt.Sprintf("tok-%d", len(l.registers)),
		HeartbeatInterval: l.interval,
	}, nil
}

func (l *scriptedLink) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	l.beatSeqs = append(l.beatSeqs, req.BeatSeq)
	next := l.beats[0]
	l.beats = l.beats[1:]
	return next(req)
}

func (l *scriptedLink) JobUpdate(req api.JobUpdateRequest) error {
	l.attempts++
	if len(l.updateErrs) > 0 {
		err := l.updateErrs[0]
		l.updateErrs = l.updateErrs[1:]
		return err
	}
	l.updates = append(l.updates, req)
	return nil
}

func (l *scriptedLink) Depart(req api.DepartRequest) error {
	l.departs = append(l.departs, req)
	return nil
}

func ack(epoch uint64) func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	return func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
		return api.HeartbeatResponse{LeaderEpoch: epoch, Acknowledged: true}, nil
	}
}

func fail(err error) func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	return func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
		return api.HeartbeatResponse{}, err
	}
}

// TestBeat is one turn of the agent's heartbeat loop, which the daemon,
// the simulations and the chaos harness all run.
func TestBeat(t *testing.T) {
	cases := []struct {
		name       string
		reply      func(api.HeartbeatRequest) (api.HeartbeatResponse, error)
		wantErr    bool
		wantJoins  int // registrations beyond the initial Join
		wantActive string
		wantEpoch  uint64
	}{
		{name: "ack", reply: ack(3), wantActive: "coord-a", wantEpoch: 3},
		{name: "reregister rejoins in place",
			reply: func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
				return api.HeartbeatResponse{Reregister: true}, nil
			},
			wantJoins: 1, wantActive: "coord-a", wantEpoch: 4},
		{name: "refused credential rejoins in place",
			reply:     fail(api.Error{Code: http.StatusUnauthorized, Message: "core: invalid token: bad signature"}),
			wantJoins: 1, wantActive: "coord-a", wantEpoch: 4},
		{name: "not leader with an epoch tries the next endpoint",
			reply:     fail(api.ErrNotLeader{Epoch: 4}),
			wantJoins: 1, wantActive: "coord-b", wantEpoch: 4},
		{name: "not leader without hint tries the next endpoint",
			reply:     fail(api.ErrNotLeader{}),
			wantJoins: 1, wantActive: "coord-b", wantEpoch: 4},
		{name: "unanswered beat rotates without rejoining",
			reply:   fail(errors.New("connection refused")),
			wantErr: true, wantActive: "coord-b", wantEpoch: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			link := &scriptedLink{epoch: 3}
			r.agent.SetEndpoints([]Endpoint{{ID: "coord-a", Link: link}, {ID: "coord-b", Link: link}, {ID: "coord-c", Link: link}})
			if _, err := r.agent.Join("inproc://node-test", 1<<30); err != nil {
				t.Fatal(err)
			}
			if r.agent.Token() != "tok-1" || r.agent.CoordEpoch() != 3 {
				t.Fatalf("Join adopted token %q epoch %d", r.agent.Token(), r.agent.CoordEpoch())
			}
			link.epoch = 4 // what a re-join will be answered with
			link.beats = append(link.beats, tc.reply)
			_, err := r.agent.Beat()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Beat error = %v", err)
			}
			if got := len(link.registers) - 1; got != tc.wantJoins {
				t.Fatalf("re-joins = %d, want %d", got, tc.wantJoins)
			}
			if tc.wantJoins > 0 {
				rejoin := link.registers[1]
				if rejoin.Addr != "inproc://node-test" || rejoin.StorageBytes != 1<<30 {
					t.Errorf("re-join advertised %q / %d, not what Join did", rejoin.Addr, rejoin.StorageBytes)
				}
				if r.agent.Token() != "tok-2" {
					t.Errorf("token after re-join = %q", r.agent.Token())
				}
			}
			if got := r.agent.ActiveEndpoint().ID; got != tc.wantActive {
				t.Errorf("active endpoint = %q, want %q", got, tc.wantActive)
			}
			if got := r.agent.CoordEpoch(); got != tc.wantEpoch {
				t.Errorf("observed epoch = %d, want %d", got, tc.wantEpoch)
			}
		})
	}
}

// TestUnansweredBeatKeepsHealthEvents: a beat that fails at the
// transport does not lose the health events it drained; they go back in
// front of the backlog, and the next beat carries them ahead of what was
// observed since.
func TestUnansweredBeatKeepsHealthEvents(t *testing.T) {
	src := gpu.NewFakeHealthSource()
	a := New(Config{MachineID: "node-test", Kernel: "5.15", Health: src}, simclock.NewSim(t0), []gpu.Spec{gpu.RTX3090},
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	t.Cleanup(a.Stop)
	var carried []gpu.HealthEvent
	link := &scriptedLink{beats: []func(api.HeartbeatRequest) (api.HeartbeatResponse, error){
		fail(errors.New("connection refused")),
		func(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
			carried = req.HealthEvents
			return ack(0)(req)
		}}}
	a.SetEndpoints([]Endpoint{{Link: link}})

	xid := gpu.HealthEvent{Kind: gpu.HealthXIDRecoverable, Severity: gpu.SeverityWarn, DeviceID: "gpu0", XID: 31}
	thermal := gpu.HealthEvent{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, DeviceID: "gpu0", Value: 96}
	src.Inject(xid)
	if _, err := a.Beat(); err == nil {
		t.Fatal("a beat the link refused reported success")
	}
	if n := a.beatFailures.Value(); n != 1 {
		t.Fatalf("heartbeat failures counted = %v, want 1", n)
	}
	src.Inject(thermal)
	if _, err := a.Beat(); err != nil {
		t.Fatal(err)
	}
	if len(carried) != 2 || carried[0].Kind != xid.Kind || carried[1].Kind != thermal.Kind {
		t.Fatalf("the answered beat carried %+v, want the unanswered beat's XID then the new thermal event", carried)
	}
}

// TestHeartbeatLoop: the first successful Join starts the agent's own
// heartbeat loop at the interval the coordinator answered. A re-join
// (here, on Reregister) does not start a second loop, and a departure
// ends the loop for good: the departed agent sends no beat again, and
// Stop finds no turn left to wait for.
func TestHeartbeatLoop(t *testing.T) {
	r := newRig(t)
	r.link.interval = 10 * time.Second
	r.link.beats = append(r.link.beats, func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
		return api.HeartbeatResponse{Reregister: true}, nil
	})
	for range 10 {
		r.link.beats = append(r.link.beats, ack(0))
	}
	beats := func() int { return len(r.link.beatSeqs) }

	r.clock.Advance(time.Minute)
	if beats() != 0 {
		t.Fatalf("%d beats before any Join", beats())
	}
	if _, err := r.agent.Join("inproc://node-test", 1<<30); err != nil {
		t.Fatal(err)
	}
	r.clock.Advance(40 * time.Second) // the first beat re-joins
	if len(r.link.registers) != 2 || beats() != 4 {
		t.Fatalf("after 40 s: %d registrations, %d beats; want 2 and 4 (one loop)", len(r.link.registers), beats())
	}
	r.agent.Depart(api.DepartTemporary, 0)
	r.clock.Advance(time.Hour)
	if beats() != 4 {
		t.Fatalf("a departed node beat: %d beats", beats())
	}
	// The loop is over, not idling: no turn is armed.
	if r.agent.beats.Stop() {
		r.agent.turns.Done()
		t.Fatal("a departed agent's heartbeat loop is still armed")
	}
	r.agent.Stop()
}

// TestJobReportResentAfterAnsweredBeat: a terminal report the
// coordinator does not answer is kept and re-sent after every answered
// beat — not after an unanswered one — with the credential current at
// that moment; once answered it arrives exactly once and is never sent
// again.
func TestJobReportResentAfterAnsweredBeat(t *testing.T) {
	r := newRig(t)
	down := errors.New("connection refused")
	r.link.epoch = 1
	r.link.updateErrs = []error{down, down}
	reregister := func(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
		return api.HeartbeatResponse{Reregister: true}, nil
	}
	r.link.beats = []func(api.HeartbeatRequest) (api.HeartbeatResponse, error){
		fail(down), ack(1), reregister, ack(1)}
	if _, err := r.agent.Join("inproc://node-test", 1<<30); err != nil {
		t.Fatal(err)
	}
	spec := workload.SmallCNN
	spec.TotalSteps = 50
	launchTraining(t, r, "j1", spec, 0)
	r.clock.Advance(time.Minute) // finishes; the report's one attempt fails
	if r.link.attempts != 1 || len(r.link.updates) != 0 {
		t.Fatalf("after the job ended: %d attempts, %d delivered", r.link.attempts, len(r.link.updates))
	}
	for i, want := range []struct{ attempts, delivered int }{
		{1, 0}, // unanswered beat: nothing re-sent
		{2, 0}, // answered beat: re-sent, fails again
		{3, 1}, // re-join: re-sent under the new token, answered
		{3, 1}, // answered beat: nothing left to send
	} {
		_, err := r.agent.Beat()
		if (err != nil) != (i == 0) {
			t.Fatalf("beat %d: error %v", i, err)
		}
		if r.link.attempts != want.attempts || len(r.link.updates) != want.delivered {
			t.Fatalf("after beat %d: %d attempts, %d delivered; want %d, %d",
				i, r.link.attempts, len(r.link.updates), want.attempts, want.delivered)
		}
	}
	if u := r.link.updates[0]; u.JobID != "j1" || u.State != db.JobCompleted || u.Token != "tok-2" || u.LeaderEpoch != 1 {
		t.Fatalf("delivered report = %+v", u)
	}
}

// syncLink is an agent.Link safe for concurrent use: registrations are
// answered with interval, every beat is acknowledged and counted, and
// job reports fail while down is set. It counts the answered reports
// per job.
type syncLink struct {
	interval time.Duration
	beats    atomic.Int64
	down     atomic.Bool
	mu       sync.Mutex
	got      map[string]int
}

func (l *syncLink) Register(api.RegisterRequest) (api.RegisterResponse, error) {
	return api.RegisterResponse{Token: "tok", HeartbeatInterval: l.interval}, nil
}

func (l *syncLink) Heartbeat(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	l.beats.Add(1)
	return api.HeartbeatResponse{Acknowledged: true}, nil
}

func (l *syncLink) JobUpdate(req api.JobUpdateRequest) error {
	if l.down.Load() {
		return errors.New("connection refused")
	}
	l.mu.Lock()
	l.got[req.JobID]++
	l.mu.Unlock()
	return nil
}

func (l *syncLink) Depart(api.DepartRequest) error { return nil }

// TestJobReportsConcurrentWithBeats: jobs end (and their reports fail)
// on the clock's goroutine while another goroutine beats, as in the
// daemon; once the coordinator answers again, every report arrives
// exactly once.
func TestJobReportsConcurrentWithBeats(t *testing.T) {
	r := newRig(t)
	link := &syncLink{got: make(map[string]int)}
	link.down.Store(true)
	r.agent.SetEndpoints([]Endpoint{{Link: link}})
	spec := workload.SmallCNN
	spec.TotalSteps = 50
	launchTraining(t, r, "j1", spec, 0)
	launchTraining(t, r, "j2", spec, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range 60 {
			r.clock.Advance(time.Second)
		}
	}()
	for range 200 {
		if _, err := r.agent.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	link.down.Store(false)
	for range 2 {
		if _, err := r.agent.Beat(); err != nil {
			t.Fatal(err)
		}
	}
	if link.got["j1"] != 1 || link.got["j2"] != 1 {
		t.Fatalf("answered reports = %v, want one per job", link.got)
	}
}

// TestHeartbeatLoopRealClock: on the wall clock the heartbeat loop runs
// on timer goroutines while the coordinator's launches and kills arrive
// through the agent's HTTP handler, as in the daemon; Stop ends it. The
// race lane runs it twenty times.
func TestHeartbeatLoopRealClock(t *testing.T) {
	link := &syncLink{interval: time.Millisecond, got: make(map[string]int)}
	a := New(Config{MachineID: "node-test", Kernel: "5.15"}, simclock.Real(), []gpu.Spec{gpu.RTX3090, gpu.RTX3090},
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	t.Cleanup(a.Stop)
	a.SetEndpoints([]Endpoint{{Link: link}})
	if _, err := a.Join("inproc://node-test", 1<<30); err != nil {
		t.Fatal(err)
	}
	orders := &Client{BaseURL: "http://node-test", HTTPClient: &http.Client{Transport: api.InProcess{Handler: a.Handler()}}}
	spec := workload.SmallCNN
	for i := 0; link.beats.Load() < 20; i++ {
		if i == 2000 {
			t.Fatalf("%d beats after %d launches", link.beats.Load(), i)
		}
		id := fmt.Sprintf("j%d", i)
		if _, err := orders.Launch(api.LaunchRequest{JobID: id, ImageName: "pytorch/pytorch:2.3-cuda12",
			Kind: "batch", GPUMemMiB: spec.GPUMemMiB, Training: &spec}); err != nil {
			t.Fatal(err)
		}
		if err := orders.Kill(api.KillRequest{JobID: id}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	a.Stop()
	stopped := link.beats.Load()
	time.Sleep(20 * time.Millisecond)
	if n := link.beats.Load(); n != stopped {
		t.Fatalf("the loop beat %d times after Stop", n-stopped)
	}
}

// TestCheckpointOrdersRealClock: on the wall clock the progress tick
// advances a training job on timer goroutines while the coordinator's
// checkpoint orders arrive through the agent's handler, two at a time,
// as in the daemon. Every capture takes a sequence number of its own.
// The race lane runs it twenty times.
func TestCheckpointOrdersRealClock(t *testing.T) {
	a := New(Config{MachineID: "node-test", Kernel: "5.15", ProgressTick: time.Millisecond}, simclock.Real(),
		[]gpu.Spec{gpu.RTX3090}, checkpoint.NewStore(storage.NewMemStore(0)), nil)
	t.Cleanup(a.Stop)
	orders := &Client{BaseURL: "http://node-test", HTTPClient: &http.Client{Transport: api.InProcess{Handler: a.Handler()}}}
	spec := workload.SmallCNN
	spec.TotalSteps = 1 << 40 // still training when the orders stop
	if _, err := orders.Launch(api.LaunchRequest{JobID: "j1", ImageName: "pytorch/pytorch:2.3-cuda12",
		Kind: "batch", GPUMemMiB: spec.GPUMemMiB, Training: &spec}); err != nil {
		t.Fatal(err)
	}
	var (
		mu   sync.Mutex
		seqs = make(map[int]bool)
		wg   sync.WaitGroup
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 25 {
				ck, err := orders.Checkpoint(api.CheckpointRequest{JobID: "j1", Incremental: true})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if seqs[ck.Seq] {
					t.Errorf("two captures took seq %d", ck.Seq)
				}
				seqs[ck.Seq] = true
				mu.Unlock()
				time.Sleep(200 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
}
