package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

// replicaRig opens replicas of one deployment: shared clock, bus,
// checkpoint store and (in-memory) lease arbiter, real WAL directories.
type replicaRig struct {
	t     *testing.T
	clock *simclock.Sim
	ckpts *checkpoint.Store
	bus   *eventbus.Bus
	lease *Lease
}

func newReplicaRig(t *testing.T) *replicaRig {
	clock := simclock.NewSim(t0)
	return &replicaRig{
		t: t, clock: clock,
		ckpts: checkpoint.NewStore(storage.NewMemStore(0)),
		bus:   eventbus.New(256),
		lease: NewLease(NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second),
	}
}

// open builds a replica; id == "" is a solo (lease-less) one, follow !=
// "" a standby. onDurable is the leader's semi-sync shipping hook.
func (r *replicaRig) open(id, dir, follow string, onDurable func(db.Mutation)) *Replica {
	r.t.Helper()
	cfg := ReplicaConfig{
		Dir: dir, FollowDir: follow,
		WAL:         wal.Config{OnDurable: onDurable},
		Coordinator: Config{HeartbeatInterval: 10 * time.Second},
	}
	if id != "" {
		cfg.Coordinator.Lease, cfg.Coordinator.ReplicaID = r.lease, id
	}
	rep, err := OpenReplica(cfg, r.clock, r.ckpts, r.bus)
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = rep.Kill() })
	return rep
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
		leader := r.open("coord-a", dirA, "", func(db.Mutation) {
			if standby != nil {
				if err := standby.Pump(); err != nil {
					t.Errorf("shipping: %v", err)
				}
			}
		})
		leader.Start()
		if !leader.Coordinator().TryLead() {
			t.Fatal("leader failed to take the free lease")
		}
		// Half the history — and a checkpoint that truncates it — before
		// the standby exists: it must bootstrap from the snapshot, not
		// from the first surviving segment.
		load(t, leader.Coordinator(), 0, 3)
		if err := leader.WAL().Checkpoint(); err != nil {
			t.Fatal(err)
		}
		standby = r.open("coord-b", dirB, dirA, nil)
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

		acked := leader.Store().ExportState()
		if err := leader.Kill(); err != nil {
			t.Fatal(err)
		}
		for !standby.Coordinator().TryLead() {
			r.clock.Advance(time.Second)
		}
		if err := standby.Promote(); err != nil {
			t.Fatal(err)
		}
		for _, v := range invariant.CheckNoLostAcked(acked, standby.Store().ExportState()) {
			t.Errorf("lost across promotion: %s", v)
		}
		if _, err := os.Stat(filepath.Join(dirB, wal.SnapshotFile)); err != nil {
			t.Errorf("promotion left no snapshot in the successor's own directory: %v", err)
		}
		standby.Start()
		if e := standby.Coordinator().Epoch(); e != 2 {
			t.Errorf("promoted at epoch %d, want 2", e)
		}
		id, err := standby.Coordinator().SubmitJob(api.SubmitJobRequest{
			User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 99999,
		})
		if err != nil || id != "job-000007" {
			t.Fatalf("post-promotion submit = %q, %v; want job-000007", id, err)
		}

		// The promoted directory stands alone: a reopen of it recovers
		// the same state, inherited history included.
		promoted := stateJSON(t, standby.Store())
		if err := standby.Kill(); err != nil {
			t.Fatal(err)
		}
		again := r.open("coord-b", dirB, "", nil)
		if got := stateJSON(t, again.Store()); got != promoted {
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
			Coordinator: Config{Lease: r.lease, ReplicaID: "coord-b"}}, r.clock, r.ckpts, r.bus)
		if err == nil || !strings.Contains(err.Error(), "empty WAL directory") {
			t.Fatalf("standby opened over a stale log: %v", err)
		}
	})
}

// refusingStore fails every Apply: a standby whose store cannot take the
// shipped records.
type refusingStore struct{ db.Store }

func (refusingStore) Apply(db.Mutation) error { return errors.New("apply refused") }

// TestReplicaPromoteAbortsOnDrainError pins the resolved divergence:
// the daemon used to log a drain error and serve anyway. A standby that
// cannot apply its buffered tail must fail Promote, open no log and
// stay a standby.
func TestReplicaPromoteAbortsOnDrainError(t *testing.T) {
	r := newReplicaRig(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	leader := r.open("coord-a", dirA, "", nil)
	leader.Start()
	if !leader.Coordinator().TryLead() {
		t.Fatal("leader failed to take the free lease")
	}
	standby := r.open("coord-b", dirB, dirA, nil)
	// An out-of-order arrival (LSN 1 never shipped) parks in the reorder
	// buffer; the drain at promotion is what must apply it — and cannot.
	standby.follower = wal.NewFollower(refusingStore{standby.Store()})
	if err := standby.follower.Offer([]db.Mutation{{LSN: 2, Type: db.MutNodePut,
		Node: &db.NodeRecord{ID: "n1", Status: db.NodeActive}}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Kill(); err != nil {
		t.Fatal(err)
	}
	for !standby.Coordinator().TryLead() {
		r.clock.Advance(time.Second)
	}
	err := standby.Promote()
	if err == nil || !strings.Contains(err.Error(), "promotion drain") {
		t.Fatalf("Promote = %v, want the drain error", err)
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
}
