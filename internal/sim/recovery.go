package sim

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

// CrashRecoveryConfig tunes the coordinator crash/restart scenario.
type CrashRecoveryConfig struct {
	// Dir is the WAL directory; empty means a temp dir removed when the
	// run finishes.
	Dir string
	// Nodes is how many 2×RTX3090 provider nodes join (default 4).
	Nodes int
	// Jobs is how many training jobs are submitted — choose more than
	// 2×Nodes so a tail is still pending when the coordinator dies
	// (default 12).
	Jobs int
	// MidSnapshot also takes an async checkpoint partway through, so
	// recovery exercises snapshot + tail replay rather than a pure log
	// replay (default true; see NoSnapshot).
	NoSnapshot bool
	// PostRecovery is how long the simulation runs after the restart
	// (default 4h — enough for every SmallCNN job to finish).
	PostRecovery time.Duration
}

// CrashRecoveryResult is what the scenario measured.
type CrashRecoveryResult struct {
	SubmittedJobs  int
	PendingAtCrash int
	RunningAtCrash int

	// Recovery fidelity: the restored store versus the pre-crash store.
	RecoveredJobs  int
	RecoveredNodes int
	NodesIntact    bool
	JobsIntact     bool
	AllocsIntact   bool
	Recovery       wal.RecoveryResult

	// Post-restart liveness: the recovered queue must drain without any
	// resubmission.
	CompletedAfterRecovery int
	LostJobs               int
	NewJobID               string
}

// RunCrashRecovery builds a small campus persisted through a write-ahead
// log, kills the coordinator mid-run (the process state — agent
// handles, relaunch metadata, timers — is discarded; only the WAL
// directory and the LAN checkpoint store survive, as they would a real
// crash), then boots a fresh coordinator from snapshot + log, re-arms
// failure detection, lets the agents re-register, and verifies that
// the job table survived byte-for-byte and that the recovered pending
// queue drains to completion without any job being resubmitted.
func RunCrashRecovery(cfg CrashRecoveryConfig) (CrashRecoveryResult, error) {
	var res CrashRecoveryResult
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 12
	}
	if cfg.PostRecovery <= 0 {
		cfg.PostRecovery = 4 * time.Hour
	}
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "gpunion-wal-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	clock := simclock.NewSim(Epoch)
	// The checkpoint store models the LAN-accessible file system: it
	// outlives the coordinator process, like the WAL directory.
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	bus := eventbus.New(4096)

	open := func() (*core.Replica, error) {
		return core.OpenReplica(core.ReplicaConfig{
			Dir:         dir,
			Coordinator: core.Config{HeartbeatInterval: time.Minute, BatchSize: 8},
		}, clock, ckpts, bus)
	}
	rep1, err := open()
	if err != nil {
		return res, err
	}
	rep1.Start()
	coord1, store1 := rep1.Coordinator(), rep1.Store()

	// The agents' heartbeat loops survive the coordinator they were
	// started under: a request to the dead process fails at the
	// transport, and the agents carry on against its successor.
	dead1 := false
	agents, err := scriptedFleet(cfg.Nodes, clock, ckpts, bus,
		func(ag *agent.Agent) []agent.Endpoint {
			return []agent.Endpoint{killableEndpoint("coordinator", coord1, ag, &dead1)}
		})
	if err != nil {
		return res, err
	}

	for i := 0; i < cfg.Jobs; i++ {
		spec := workload.SmallCNN
		req := TrainingJobSubmission(fmt.Sprintf("user-%d", i%3), spec, 5*time.Minute)
		if _, err := coord1.SubmitJob(req); err != nil {
			return res, err
		}
	}
	res.SubmittedJobs = cfg.Jobs

	clock.Advance(10 * time.Minute)
	if !cfg.NoSnapshot {
		// Async checkpoint under live traffic; the log keeps the tail.
		if err := rep1.WAL().Checkpoint(); err != nil {
			return res, err
		}
	}
	clock.Advance(5 * time.Minute)

	res.PendingAtCrash = store1.CountJobsInState(db.JobPending)
	res.RunningAtCrash = store1.CountJobsInState(db.JobRunning)
	before := store1.ExportState()

	// --- Crash. Only what fsync guaranteed survives: no final
	// snapshot, no handover. The old coordinator's in-memory world
	// (agent handles, relaunch metadata, sweep timers) dies here.
	dead1 = true
	if err := rep1.Kill(); err != nil {
		return res, err
	}

	// --- Restart: recover a fresh store from snapshot + WAL tail, and
	// compare it with the pre-crash image before anything re-arms.
	rep2, err := open()
	if err != nil {
		return res, err
	}
	defer rep2.Kill()
	coord2, store2 := rep2.Coordinator(), rep2.Store()
	res.Recovery = rep2.WAL().Recovery
	after := store2.ExportState()
	res.RecoveredJobs = len(after.Jobs)
	res.RecoveredNodes = len(after.Nodes)
	res.NodesIntact = jsonEqual(before.Nodes, after.Nodes)
	res.JobsIntact = jsonEqual(before.Jobs, after.Jobs)
	res.AllocsIntact = jsonEqual(before.Allocations, after.Allocations)
	rep2.Start()

	// Agents notice the restart and re-register (their running
	// workloads never stopped).
	for _, ag := range agents {
		ag.SetEndpoints([]agent.Endpoint{localEndpoint("coordinator", coord2, ag)})
		if err := joinLocal(ag); err != nil {
			return res, err
		}
	}

	// A post-restart submission must not collide with recovered IDs.
	newID, err := coord2.SubmitJob(TrainingJobSubmission("user-new", workload.SmallCNN, 5*time.Minute))
	if err != nil {
		return res, err
	}
	res.NewJobID = newID

	clock.Advance(cfg.PostRecovery)

	res.CompletedAfterRecovery = store2.CountJobsInState(db.JobCompleted)
	res.LostJobs = cfg.Jobs + 1 - len(store2.ListJobs())
	return res, nil
}

// scriptedFleet builds n 2×RTX3090 nodes, each with the endpoints eps
// names for it, and joins them through the first one; from then on each
// agent beats through its active endpoint at the coordinator's interval.
// Job reports and departures take the same endpoint as the beats.
func scriptedFleet(n int, clock *simclock.Sim, ckpts *checkpoint.Store, bus *eventbus.Bus,
	eps func(*agent.Agent) []agent.Endpoint) ([]*agent.Agent, error) {
	agents := make([]*agent.Agent, n)
	for i := range agents {
		ag := agent.New(agent.Config{MachineID: fmt.Sprintf("node-%02d", i+1), Kernel: "5.15",
			ProgressTick: 30 * time.Second}, clock, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}, ckpts, bus)
		ag.SetEndpoints(eps(ag))
		if err := joinLocal(ag); err != nil {
			return nil, err
		}
		agents[i] = ag
	}
	return agents, nil
}

// killableEndpoint is localEndpoint to a replica the script kills: once
// *dead is set, every request to it fails at the transport, as to a
// process that is gone. (Sim-clock callbacks run on the advancing
// goroutine, so a plain variable is safe.)
func killableEndpoint(id string, coord *core.Coordinator, ag *agent.Agent, dead *bool) agent.Endpoint {
	link := core.NewInProcessClient(coord, ag)
	link.HTTPClient.Transport = deadWire{link.HTTPClient.Transport, dead}
	return agent.Endpoint{ID: id, Link: link}
}

// deadWire fails every request while *dead holds.
type deadWire struct {
	http.RoundTripper
	dead *bool
}

// RoundTrip implements http.RoundTripper.
func (w deadWire) RoundTrip(req *http.Request) (*http.Response, error) {
	if *w.dead {
		return nil, errors.New("sim: coordinator replica is dead")
	}
	return w.RoundTripper.RoundTrip(req)
}

// jsonEqual compares two values by their canonical JSON encoding — the
// "byte-equal" check of the recovery acceptance criterion.
func jsonEqual(a, b any) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && string(ja) == string(jb)
}
