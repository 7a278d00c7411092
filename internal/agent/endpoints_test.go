package agent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/workload"
)

func TestSetEndpointsAndRedirect(t *testing.T) {
	r := newRig(t)
	a, b := &scriptedLink{}, &scriptedLink{}
	r.agent.SetEndpoints([]Endpoint{{ID: "coord-a", Link: a}, {ID: "coord-b", Link: b}})
	if got := r.agent.ActiveEndpoint().ID; got != "coord-a" {
		t.Fatalf("active = %q", got)
	}
	// A leader hint redirects to the named endpoint.
	if !r.agent.Redirect("coord-b") {
		t.Fatal("hinted redirect failed")
	}
	if got := r.agent.ActiveEndpoint().ID; got != "coord-b" {
		t.Fatalf("active after hint = %q", got)
	}
	// No hint: round-robin to the next endpoint.
	if !r.agent.Redirect("") {
		t.Fatal("round-robin redirect failed")
	}
	if got := r.agent.ActiveEndpoint().ID; got != "coord-a" {
		t.Fatalf("active after round-robin = %q", got)
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
	if r.agent.Redirect("") {
		t.Fatal("redirect succeeded with a single endpoint and no hint")
	}
	if r.agent.Redirect("nonexistent") {
		t.Fatal("redirect succeeded to an unknown endpoint")
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
// current token and epoch, a job report fails with the next of
// updateErrs while any are left, departures succeed. It records what
// reached it: updates holds the answered reports, attempts counts them
// all.
type scriptedLink struct {
	beats      []func(api.HeartbeatRequest) (api.HeartbeatResponse, error)
	epoch      uint64
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
		LeaderEpoch: l.epoch,
		Token:       fmt.Sprintf("tok-%d", len(l.registers)),
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

// TestBeat is the one heartbeat turn every loop runs — the daemon's, the
// simulations', the chaos harness's.
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
		{name: "not leader with hint follows it and rejoins",
			reply:     fail(api.ErrNotLeader{LeaderHint: "coord-c", Epoch: 4}),
			wantJoins: 1, wantActive: "coord-c", wantEpoch: 4},
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

// TestBeatFallsBackFromDemotedAggregator: a failing rack relay is
// demoted inside the same Beat call and the very same beat (same
// sequence) lands on the direct link; the next Beat skips the relay.
func TestBeatFallsBackFromDemotedAggregator(t *testing.T) {
	r := newRig(t)
	link := &scriptedLink{epoch: 1, beats: []func(api.HeartbeatRequest) (api.HeartbeatResponse, error){ack(1), ack(1)}}
	r.agent.SetEndpoints([]Endpoint{{Link: link}})
	if _, err := r.agent.Join("inproc://node-test", 1<<30); err != nil {
		t.Fatal(err)
	}
	relay := &scriptedLink{beats: []func(api.HeartbeatRequest) (api.HeartbeatResponse, error){
		fail(errors.New("relay down"))}}
	r.agent.SetAggregator("agg-00", relay)

	resp, err := r.agent.Beat()
	if err != nil || !resp.Acknowledged {
		t.Fatalf("Beat through a dead relay = %+v, %v", resp, err)
	}
	if len(relay.beatSeqs) != 1 || len(link.beatSeqs) != 1 || relay.beatSeqs[0] != link.beatSeqs[0] {
		t.Fatalf("relay saw %v, direct saw %v; want the same one beat on both", relay.beatSeqs, link.beatSeqs)
	}
	if resp, err = r.agent.Beat(); err != nil || !resp.Acknowledged {
		t.Fatalf("second Beat = %+v, %v", resp, err)
	}
	if len(relay.beatSeqs) != 1 || len(link.beatSeqs) != 2 {
		t.Fatalf("demoted relay was probed again: relay %v direct %v", relay.beatSeqs, link.beatSeqs)
	}
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

// syncLink is an agent.Link safe for concurrent use: every beat is
// acknowledged, and job reports fail while down is set. It counts the
// answered reports per job.
type syncLink struct {
	down atomic.Bool
	mu   sync.Mutex
	got  map[string]int
}

func (l *syncLink) Register(api.RegisterRequest) (api.RegisterResponse, error) {
	return api.RegisterResponse{Token: "tok"}, nil
}

func (l *syncLink) Heartbeat(api.HeartbeatRequest) (api.HeartbeatResponse, error) {
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
