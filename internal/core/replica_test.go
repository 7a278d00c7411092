package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

// replicaRig opens replicas of one deployment: shared clock, recorder,
// checkpoint store and (in-memory) lease arbiter, real WAL directories.
type replicaRig struct {
	t     *testing.T
	clock *simclock.Sim
	ckpts *checkpoint.Store
	trace *obs.Recorder
	lease *Lease
}

func newReplicaRig(t *testing.T) *replicaRig {
	clock := simclock.NewSim(t0)
	return &replicaRig{
		t: t, clock: clock,
		ckpts: checkpoint.NewStore(storage.NewMemStore(0)),
		trace: obs.NewRecorder(clock, 0),
		lease: NewLease(NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second),
	}
}

// config describes a replica; id == "" is a solo (lease-less) one,
// follow != "" a standby. onDurable is the leader's semi-sync shipping
// hook.
func (r *replicaRig) config(id, dir, follow string, onDurable func(db.Mutation)) ReplicaConfig {
	cfg := ReplicaConfig{
		Dir: dir, FollowDir: follow,
		WAL:         wal.Config{OnDurable: onDurable},
		Coordinator: Config{HeartbeatInterval: 10 * time.Second},
	}
	if id != "" {
		cfg.Coordinator.Lease, cfg.Coordinator.ReplicaID = r.lease, id
	}
	return cfg
}

// open builds the replica config describes.
func (r *replicaRig) open(id, dir, follow string, onDurable func(db.Mutation)) *Replica {
	return r.openConfig(r.config(id, dir, follow, onDurable))
}

func (r *replicaRig) openConfig(cfg ReplicaConfig) *Replica {
	r.t.Helper()
	rep, err := OpenReplica(cfg, r.clock, r.trace)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = rep.Kill() })
	return rep
}

// startLeader opens a lease-mode replica on dir and starts it: its
// loop's first turn wins the free lease.
func (r *replicaRig) startLeader(dir string, onDurable func(db.Mutation)) *Replica {
	r.t.Helper()
	leader := r.open("coord-a", dir, "", onDurable)
	leader.Start()
	if !leader.Coordinator().Leading() {
		r.t.Fatal("leader failed to take the free lease")
	}
	return leader
}

// advanceUntil moves the clock a second at a time until cond holds,
// for at most limit.
func (r *replicaRig) advanceUntil(limit time.Duration, cond func() bool) {
	r.t.Helper()
	for waited := time.Duration(0); !cond(); waited += time.Second {
		if waited > limit {
			r.t.Fatalf("condition still false after %v", limit)
		}
		r.clock.Advance(time.Second)
	}
}

// submit is one write: a job no agent can run.
func submit(c *Coordinator) (string, error) {
	return c.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 99999,
	})
}

// load drives real coordinator writes: nodes register and jobs queue
// (no agent can run them, so they stay pending — state the successor
// must inherit).
func load(t *testing.T, c *Coordinator, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		id := fmt.Sprintf("n%02d", i)
		if _, err := c.Register(api.RegisterRequest{
			MachineID: id, Addr: "fake://" + id,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SubmitJob(api.SubmitJobRequest{
			User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 99999,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func stateJSON(t *testing.T, s db.Store) string {
	t.Helper()
	b, err := json.Marshal(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestReplicaLifecycle(t *testing.T) {
	t.Run("kill then reopen recovers the log", func(t *testing.T) {
		r, dir := newReplicaRig(t), t.TempDir()
		rep := r.open("", dir, "", nil)
		rep.Start()
		load(t, rep.Coordinator(), 0, 4)
		before := stateJSON(t, rep.Store())
		if err := rep.Kill(); err != nil {
			t.Fatal(err)
		}
		if rep.WAL() != nil {
			t.Fatal("a killed replica still exposes its log")
		}

		again := r.open("", dir, "", nil)
		rec := again.WAL().Recovery
		if rec.SnapshotLoaded || rec.Replayed == 0 {
			t.Fatalf("a kill takes no checkpoint, yet recovery = %+v", rec)
		}
		if got := stateJSON(t, again.Store()); got != before {
			t.Fatalf("recovered state differs from the state at the kill:\n%s\n%s", got, before)
		}
		// Opened is not started: the job sequence only resumes at Start.
		again.Start()
		id, err := again.Coordinator().SubmitJob(api.SubmitJobRequest{
			User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 99999,
		})
		if err != nil || id != "job-000005" {
			t.Fatalf("post-recovery submit = %q, %v; want job-000005", id, err)
		}
	})

	t.Run("close then reopen replays an empty tail", func(t *testing.T) {
		r, dir := newReplicaRig(t), t.TempDir()
		rep := r.open("", dir, "", nil)
		rep.Start()
		load(t, rep.Coordinator(), 0, 4)
		before := stateJSON(t, rep.Store())
		if err := rep.Close(); err != nil {
			t.Fatal(err)
		}
		again := r.open("", dir, "", nil)
		if rec := again.WAL().Recovery; !rec.SnapshotLoaded || rec.Replayed != 0 {
			t.Fatalf("recovery after a clean close = %+v, want snapshot and an empty tail", rec)
		}
		if got := stateJSON(t, again.Store()); got != before {
			t.Fatal("state after close and reopen differs")
		}
	})

	t.Run("samples survive a crash only through the checkpoint", func(t *testing.T) {
		r, dir := newReplicaRig(t), t.TempDir()
		rep := r.open("", dir, "", nil)
		rep.Start()
		reg, err := rep.Coordinator().Register(api.RegisterRequest{
			MachineID: "n00", Addr: "fake://n00",
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
		}, newFakeAgent("gpu0"))
		if err != nil {
			t.Fatal(err)
		}
		seq := uint64(0)
		telemetryBeats := func(n int) {
			for i := 0; i < n; i++ {
				seq++
				r.clock.Advance(time.Second)
				resp, err := rep.Coordinator().Heartbeat(api.HeartbeatRequest{
					Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: reg.LeaderEpoch},
					MachineID: "n00", Token: reg.Token, BeatSeq: seq,
					Telemetry: []gpu.Telemetry{{DeviceID: "gpu0", Utilization: 0.5, UsedMemMiB: 1024}},
				})
				if err != nil || !resp.Acknowledged {
					t.Fatalf("telemetry beat %d = %+v, %v", seq, resp, err)
				}
			}
		}
		telemetryBeats(3)
		if err := rep.WAL().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		atCheckpoint := rep.Store().ExportState().Samples
		telemetryBeats(3)
		r.clock.Advance(10 * time.Second) // flush the coalesced beat advances into the log
		atKill := rep.Store().ExportState()
		if len(atCheckpoint) != 6 || len(atKill.Samples) != 12 {
			t.Fatalf("%d samples at the checkpoint, %d at the kill; want 6 and 12", len(atCheckpoint), len(atKill.Samples))
		}
		if err := rep.Kill(); err != nil {
			t.Fatal(err)
		}

		again := r.open("", dir, "", nil)
		if rec := again.WAL().Recovery; !rec.SnapshotLoaded || rec.Replayed == 0 {
			t.Fatalf("recovery = %+v, want snapshot plus a replayed tail", rec)
		}
		got := again.Store().ExportState()
		if vs := invariant.CheckEquivalence(atKill, got); len(vs) != 0 {
			t.Fatalf("durable tables diverged or the watermark regressed: %v", vs)
		}
		if !reflect.DeepEqual(got.Samples, atCheckpoint) {
			t.Fatalf("recovered samples = %+v, want the checkpoint's %+v", got.Samples, atCheckpoint)
		}
	})

	t.Run("standby promotes with nothing acked lost", func(t *testing.T) {
		r := newReplicaRig(t)
		dirA, dirB := t.TempDir(), t.TempDir()
		var standby *Replica
		leader := r.startLeader(dirA, func(db.Mutation) {
			if standby != nil {
				if err := standby.Pump(); err != nil {
					t.Errorf("shipping: %v", err)
				}
			}
		})
		// Half the history — and a checkpoint that truncates it — before
		// the standby exists: it must bootstrap from the snapshot, not
		// from the first surviving segment.
		load(t, leader.Coordinator(), 0, 3)
		if err := leader.WAL().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		var acked db.State
		promoted := 0
		cfg := r.config("coord-b", dirB, dirA, nil)
		cfg.OnPromote = func(epoch uint64, err error) {
			promoted++
			if err != nil || epoch != 2 {
				t.Fatalf("promotion = epoch %d, %v; want epoch 2", epoch, err)
			}
			// After Promote, before recoverState: the audit against the
			// acked baseline.
			for _, v := range invariant.CheckNoLostAcked(acked, standby.Store().ExportState()) {
				t.Errorf("lost across promotion: %s", v)
			}
			if _, err := os.Stat(filepath.Join(dirB, wal.SnapshotFile)); err != nil {
				t.Errorf("promotion left no snapshot in the successor's own directory: %v", err)
			}
		}
		standby = r.openConfig(cfg)
		standby.Start()
		load(t, leader.Coordinator(), 3, 6)
		if records, _ := standby.Lag(leader.Store().CurrentLSN()); records != 0 {
			t.Fatalf("semi-sync standby lags %d records behind", records)
		}

		// Fenced until promoted.
		_, err := standby.Coordinator().SubmitJob(api.SubmitJobRequest{
			User: "eve", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
		})
		var nl api.ErrNotLeader
		if !errors.As(err, &nl) || nl.LeaderHint != "coord-a" {
			t.Fatalf("standby answered a write with %v, want ErrNotLeader hinting coord-a", err)
		}
		if standby.WAL() != nil {
			t.Fatal("a standby has a log of its own before promotion")
		}

		acked = leader.Store().ExportState()
		if err := leader.Kill(); err != nil {
			t.Fatal(err)
		}
		r.advanceUntil(time.Minute, standby.Coordinator().Leading)
		if promoted != 1 {
			t.Fatalf("OnPromote ran %d times, want once", promoted)
		}
		id, err := submit(standby.Coordinator())
		if err != nil || id != "job-000007" {
			t.Fatalf("post-promotion submit = %q, %v; want job-000007", id, err)
		}

		// The promoted directory stands alone: a reopen of it recovers
		// the same state, inherited history included.
		promotedState := stateJSON(t, standby.Store())
		if err := standby.Kill(); err != nil {
			t.Fatal(err)
		}
		again := r.open("coord-b", dirB, "", nil)
		if got := stateJSON(t, again.Store()); got != promotedState {
			t.Fatal("reopening the promoted directory recovers a different state")
		}
	})

	t.Run("a standby refuses a directory that already holds a log", func(t *testing.T) {
		r := newReplicaRig(t)
		dirA, dirB := t.TempDir(), t.TempDir()
		old := r.open("", dirB, "", nil)
		old.Start()
		load(t, old.Coordinator(), 0, 1)
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		_, err := OpenReplica(ReplicaConfig{Dir: dirB, FollowDir: dirA,
			Coordinator: Config{Lease: r.lease, ReplicaID: "coord-b"}}, r.clock, r.trace)
		if err == nil || !strings.Contains(err.Error(), "empty WAL directory") {
			t.Fatalf("standby opened over a stale log: %v", err)
		}
	})
}

// refusingStore fails every Apply: a standby whose store cannot take the
// shipped records.
type refusingStore struct{ db.Store }

func (refusingStore) Apply(db.Mutation) error { return errors.New("apply refused") }

// refusingStandby opens a standby of dirA into dirB whose follower
// holds an out-of-order arrival (LSN 1 never shipped) in its reorder
// buffer over a store that refuses every record: the drain at
// promotion must apply it, and cannot.
func (r *replicaRig) refusingStandby(dirA, dirB string, onPromote func(uint64, error)) *Replica {
	r.t.Helper()
	cfg := r.config("coord-b", dirB, dirA, nil)
	cfg.OnPromote = onPromote
	standby := r.openConfig(cfg)
	standby.follower = wal.NewFollower(refusingStore{standby.Store()})
	if err := standby.follower.Offer([]db.Mutation{{LSN: 2, Type: db.MutNodePut,
		Node: &db.NodeRecord{ID: "n1", Status: db.NodeActive}}}); err != nil {
		r.t.Fatal(err)
	}
	return standby
}

// TestReplicaPromoteAbortsOnDrainError pins the resolved divergence:
// the daemon used to log a drain error and serve anyway. A standby that
// cannot apply its buffered tail must fail its promotion, open no log,
// stay fenced and give the lease up.
func TestReplicaPromoteAbortsOnDrainError(t *testing.T) {
	r := newReplicaRig(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	leader := r.startLeader(dirA, nil)
	var promoteErr error
	standby := r.refusingStandby(dirA, dirB, func(_ uint64, err error) { promoteErr = err })
	standby.Start()
	if err := leader.Kill(); err != nil {
		t.Fatal(err)
	}
	r.advanceUntil(time.Minute, func() bool { return promoteErr != nil })
	if !strings.Contains(promoteErr.Error(), "promotion drain") {
		t.Fatalf("OnPromote got %v, want the drain error", promoteErr)
	}
	if standby.WAL() != nil {
		t.Fatal("a failed promotion opened a log")
	}
	if entries, _ := os.ReadDir(dirB); len(entries) != 0 {
		t.Fatalf("a failed promotion wrote %d entries into its directory", len(entries))
	}
	if len(standby.Store().ListNodes()) != 0 {
		t.Fatal("the refused record reached the store")
	}
	// The grant is not renewed: a healthy replica wins it once it lapses.
	r.clock.Advance(40 * time.Second)
	if _, _, err := r.lease.Acquire("coord-c"); err != nil {
		t.Fatalf("the lease stayed with the failed replica: %v", err)
	}
}

// TestReplicaPromotionWindow: between winning the lease and the end of
// recoverState, the replica acks no write. A failed promotion acks none
// at all; a successful one admits the first write after recoverState,
// numbered past every inherited job.
func TestReplicaPromotionWindow(t *testing.T) {
	refused := func(t *testing.T, c *Coordinator, when string) {
		t.Helper()
		if id, err := submit(c); !errors.As(err, new(api.ErrNotLeader)) {
			t.Errorf("%s: submit = %q, %v; want ErrNotLeader", when, id, err)
		}
		if _, err := c.Register(api.RegisterRequest{MachineID: "late", Addr: "fake://late"}, nil); !errors.As(err, new(api.ErrNotLeader)) {
			t.Errorf("%s: register = %v; want ErrNotLeader", when, err)
		}
	}

	t.Run("failed drain", func(t *testing.T) {
		r := newReplicaRig(t)
		dirA, dirB := t.TempDir(), t.TempDir()
		leader := r.startLeader(dirA, nil)
		var standby *Replica
		var promoteErr error
		standby = r.refusingStandby(dirA, dirB, func(_ uint64, err error) {
			promoteErr = err
			refused(t, standby.Coordinator(), "in OnPromote")
		})
		standby.Start()
		if err := leader.Kill(); err != nil {
			t.Fatal(err)
		}
		r.advanceUntil(time.Minute, func() bool { return promoteErr != nil })
		refused(t, standby.Coordinator(), "after the failed promotion")
		r.clock.Advance(time.Minute)
		refused(t, standby.Coordinator(), "a minute later")
	})

	t.Run("successful promotion", func(t *testing.T) {
		r := newReplicaRig(t)
		dirA, dirB := t.TempDir(), t.TempDir()
		var standby *Replica
		leader := r.startLeader(dirA, func(db.Mutation) {
			if standby != nil {
				_ = standby.Pump()
			}
		})
		cfg := r.config("coord-b", dirB, dirA, nil)
		cfg.OnPromote = func(_ uint64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			if standby.WAL() == nil {
				t.Error("OnPromote ran before Promote opened the log")
			}
			refused(t, standby.Coordinator(), "in OnPromote")
		}
		standby = r.openConfig(cfg)
		standby.Start()
		load(t, leader.Coordinator(), 0, 3)
		if err := leader.Kill(); err != nil {
			t.Fatal(err)
		}
		r.advanceUntil(time.Minute, standby.Coordinator().Leading)
		if id, err := submit(standby.Coordinator()); err != nil || id != "job-000004" {
			t.Fatalf("first write after promotion = %q, %v; want job-000004", id, err)
		}
	})
}

// TestReplicaPromotionWindowRealClock is the same window on wall-clock
// timers: the standby's loop turns on a timer goroutine while the
// leader's shipping hook pumps it and a writer hammers it. Every write
// it acks must come after OnPromote returned and be numbered past the
// inherited jobs — a write admitted before recoverState reuses an
// inherited job's ID.
func TestReplicaPromotionWindowRealClock(t *testing.T) {
	clock := simclock.Real()
	// Renewals every third of a second keep the leader's grant through a
	// loaded host's scheduling gaps; the handoff takes about 1.5 s.
	lease := NewLease(NewMemLeaseStore(), clock, time.Second, 500*time.Millisecond)
	dirA, dirB := t.TempDir(), t.TempDir()
	open := func(id, dir, follow string, onDurable func(db.Mutation), onPromote func(uint64, error)) *Replica {
		rep, err := OpenReplica(ReplicaConfig{Dir: dir, FollowDir: follow,
			WAL:         wal.Config{OnDurable: onDurable},
			Coordinator: Config{HeartbeatInterval: 10 * time.Second, Lease: lease, ReplicaID: id},
			OnPromote:   onPromote,
		}, clock, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rep.Kill() })
		return rep
	}
	var standby atomic.Pointer[Replica]
	leader := open("coord-a", dirA, "", func(db.Mutation) {
		if sb := standby.Load(); sb != nil {
			_ = sb.Pump()
		}
	}, nil)
	leader.Start()
	if !leader.Coordinator().Leading() {
		t.Fatal("leader failed to take the free lease")
	}
	var promoted atomic.Bool
	standby.Store(open("coord-b", dirB, dirA, nil, func(_ uint64, err error) {
		if err != nil {
			t.Error(err)
		}
		promoted.Store(true)
	}))
	sb := standby.Load()
	sb.Start()
	load(t, leader.Coordinator(), 0, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the leader's log keeps being tailed
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = sb.Pump()
			}
		}
	}()
	var acked []string
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if id, err := submit(sb.Coordinator()); err == nil {
				if !promoted.Load() {
					t.Errorf("write %s acked before OnPromote returned", id)
				}
				acked = append(acked, id)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	if err := leader.Kill(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); !sb.Coordinator().Leading(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the standby never led")
		}
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("the promoted standby acked no write")
	}
	for _, id := range acked {
		if id <= "job-000003" {
			t.Errorf("acked write %s reuses an inherited job's ID", id)
		}
	}
}

// TestReplicaCloseReleasesLease: a leader's Close hands the lease over
// at once — a standby's next turn wins it — while a Kill leaves the
// grant and the skew grace to run out.
func TestReplicaCloseReleasesLease(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clean bool
	}{{"close", true}, {"kill", false}} {
		t.Run(tc.name, func(t *testing.T) {
			r := newReplicaRig(t) // TTL 30 s, grace 5 s: turns every 15 s
			dirA, dirB := t.TempDir(), t.TempDir()
			var standby *Replica
			leader := r.startLeader(dirA, func(db.Mutation) {
				if standby != nil {
					_ = standby.Pump()
				}
			})
			standby = r.open("coord-b", dirB, dirA, nil)
			standby.Start()
			load(t, leader.Coordinator(), 0, 2)
			r.clock.Advance(time.Second)
			stop := leader.Kill
			if tc.clean {
				stop = leader.Close
			}
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			r.clock.Advance(15 * time.Second) // the standby's next turn
			if got := standby.Coordinator().Leading(); got != tc.clean {
				t.Fatalf("leading one turn after the leader's %s = %v, want %v", tc.name, got, tc.clean)
			}
			// TTL plus grace after the last renewal, and at most one turn.
			r.advanceUntil(50*time.Second, standby.Coordinator().Leading)
			if e := standby.Coordinator().Epoch(); e != 2 {
				t.Fatalf("successor epoch %d, want 2", e)
			}
		})
	}
}

// TestMigrateBackSurvivesCoordinatorChange: a provider leaves on a
// temporary departure and its job moves to another node; then the
// coordinator restarts over its log, or its standby takes over, and the
// provider's machine comes back as a fresh agent. The return intent is
// part of the node record, so the successor moves the job home, in
// either order of arrival: when the home node registers before the
// job's host has re-attached, the intent waits for the host's
// registration to offer the move.
func TestMigrateBackSurvivesCoordinatorChange(t *testing.T) {
	for _, name := range []string{"restart", "failover"} {
		failover := name == "failover"
		t.Run(name, func(t *testing.T) {
			for _, order := range []string{"host-first", "home-first"} {
				t.Run(order, func(t *testing.T) {
					migrateBackAcrossCoordinatorChange(t, failover, order == "home-first")
				})
			}
		})
	}
}

func migrateBackAcrossCoordinatorChange(t *testing.T, failover, homeFirst bool) {
	r := newReplicaRig(t)
	open := func(id, dir, follow string, onDurable func(db.Mutation)) *Replica {
		cfg := r.config(id, dir, follow, onDurable)
		// Detection must not race the switch-over: the nodes re-register
		// with the successor in the order the test picks.
		cfg.Coordinator.MissedThreshold = 10
		return r.openConfig(cfg)
	}
	join := func(rep *Replica, ag *agent.Agent) {
		t.Helper()
		ag.SetEndpoints([]agent.Endpoint{{Link: linkTo(rep.Coordinator(), ag)}})
		if _, err := ag.Join("inproc://"+ag.MachineID(), 1<<30); err != nil {
			t.Fatal(err)
		}
	}
	boot := func(id string) *agent.Agent {
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, r.clock, []gpu.Spec{gpu.RTX3090}, r.ckpts, nil)
		t.Cleanup(ag.Stop)
		return ag
	}

	dirA := t.TempDir()
	var first, standby *Replica
	if failover {
		first = open("coord-a", dirA, "", func(db.Mutation) {
			if standby != nil {
				_ = standby.Pump()
			}
		})
		first.Start()
		standby = open("coord-b", t.TempDir(), dirA, nil)
		standby.Start()
	} else {
		first = open("", dirA, "", nil)
		first.Start()
	}
	home, host := boot("n1"), boot("n2")
	join(first, home)
	spec := workload.SmallCNN
	id, err := first.Coordinator().SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 30, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	join(first, host)
	r.clock.Advance(time.Minute)
	home.Depart(api.DepartTemporary, time.Minute)
	if st, _ := first.Coordinator().JobStatus(id); st.NodeID != "n2" {
		t.Fatalf("job not displaced to n2: %+v", st)
	}

	if err := first.Kill(); err != nil {
		t.Fatal(err)
	}
	next := standby
	if failover {
		r.advanceUntil(time.Minute, standby.Coordinator().Leading)
	} else {
		next = open("", dirA, "", nil)
		next.Start()
	}
	succ := next.Coordinator()
	// The provider's machine comes back with a fresh agent.
	home.Stop()
	homeBack := func() { join(next, boot("n1")) }
	// The host's address now reaches the successor; its next beat is
	// refused and it joins again.
	hostBack := func() {
		host.SetEndpoints([]agent.Endpoint{{Link: linkTo(succ, host)}})
		r.advanceUntil(time.Minute, func() bool { return succ.handle("n2") != nil })
	}
	if homeFirst {
		homeBack()
		if st, _ := succ.JobStatus(id); st.NodeID != "n2" {
			t.Fatalf("job moved before its host re-attached: %+v", st)
		}
		hostBack()
	} else {
		hostBack()
		homeBack()
	}
	r.clock.Advance(time.Second)
	st, err := succ.JobStatus(id)
	if err != nil || st.State != db.JobRunning || st.NodeID != "n1" {
		t.Fatalf("after the return: %+v, %v; want the job running at home on n1", st, err)
	}
	if n := migrated(succ.Trace())["migrate-back"]; n != 1 {
		t.Fatalf("migrate-back successes = %d, want 1", n)
	}
	if rec, err := succ.DB().GetNode("n1"); err != nil || rec.ReturnExpected {
		t.Fatalf("n1 = %+v, %v; want the return intent cleared once the move was made", rec, err)
	}
}

// registerFake registers node id, one RTX 3090, with a fake agent.
func registerFake(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	if _, err := c.Register(api.RegisterRequest{
		MachineID: id, Addr: "fake://" + id,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0")); err != nil {
		t.Fatal(err)
	}
}

// recoverAfterWrite runs a job on n00 under a fresh deployment (a solo
// replica, or a leader with a semi-sync standby), lets write change the
// store, kills the replica and returns its successor, recovered and
// leading, with the job's ID.
func recoverAfterWrite(t *testing.T, failover bool, write func(s db.Store, jobID string)) (*Coordinator, string) {
	r, dir := newReplicaRig(t), t.TempDir()
	var first, standby *Replica
	if failover {
		first = r.startLeader(dir, func(db.Mutation) {
			if standby != nil {
				_ = standby.Pump()
			}
		})
		standby = r.open("coord-b", t.TempDir(), dir, nil)
		standby.Start()
	} else {
		first = r.open("", dir, "", nil)
		first.Start()
	}
	registerFake(t, first.Coordinator(), "n00")
	id, err := first.Coordinator().SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := first.Coordinator().JobStatus(id); st.State != db.JobRunning || st.NodeID != "n00" {
		t.Fatalf("job = %+v, want running on n00", st)
	}
	write(first.Store(), id)
	if err := first.Kill(); err != nil {
		t.Fatal(err)
	}
	if failover {
		r.advanceUntil(time.Minute, standby.Coordinator().Leading)
		return standby.Coordinator(), id
	}
	next := r.open("", dir, "", nil)
	next.Start()
	return next.Coordinator(), id
}

// TestRecoveryRequeuesJobOnDepartedNode: nodeLeaves commits a node's
// departure before it moves the node's jobs, so a replica killed
// between the two writes leaves a job running on a node out of service,
// which a node that departed on schedule never registers again to
// correct. Recovery requeues the job, after a restart over the log and
// after a standby's promotion alike, and it is placed once a member has
// room.
func TestRecoveryRequeuesJobOnDepartedNode(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(map[bool]string{false: "solo", true: "failover"}[failover], func(t *testing.T) {
			c, id := recoverAfterWrite(t, failover, func(s db.Store, _ string) {
				// The departure's first write, as nodeLeaves commits it.
				if err := s.UpdateNode("n00", func(n *db.NodeRecord) {
					n.Status = db.NodeDeparted
					n.Departures++
				}); err != nil {
					t.Fatal(err)
				}
			})
			if st, _ := c.JobStatus(id); st.State != db.JobPending || st.NodeID != "" {
				t.Fatalf("recovered job = %+v, want pending with no node", st)
			}
			registerFake(t, c, "n01")
			if st, _ := c.JobStatus(id); st.State != db.JobRunning || st.NodeID != "n01" {
				t.Fatalf("job = %+v, want running on n01", st)
			}
			if vs := invariant.NewChecker().Check(c.DB()); len(vs) != 0 {
				t.Fatalf("invariants after the relaunch: %v", vs)
			}
		})
	}
}

// TestRecoveryRequeuesLegacyMigratingRecord: a log written by an older
// build can end on a job mid-move, in the retired migrating state with
// its source's episode closed. Recovery requeues it.
func TestRecoveryRequeuesLegacyMigratingRecord(t *testing.T) {
	c, id := recoverAfterWrite(t, false, func(s db.Store, jobID string) {
		j, err := s.GetJob(jobID)
		if err != nil {
			t.Fatal(err)
		}
		_ = s.CloseAllocationEpisode(jobID, j.NodeID, j.DeviceID, j.PlacedAt)
		if err := s.UpdateJob(jobID, func(j *db.JobRecord) { j.State = db.JobState("migrating") }); err != nil {
			t.Fatal(err)
		}
	})
	if st, _ := c.JobStatus(id); st.State != db.JobPending || st.NodeID != "" {
		t.Fatalf("recovered job = %+v, want pending with no node", st)
	}
	if vs := invariant.NewChecker().Check(c.DB()); len(vs) != 0 {
		t.Fatalf("invariants after recovery: %v", vs)
	}
}
