package sim

import (
	"fmt"
	"os"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
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
// crash), then boots a fresh coordinator from snapshot + log at the
// same address, re-arms failure detection, lets the agents re-register
// on their own next beats, and verifies that the job table survived
// byte-for-byte and that the recovered pending queue drains to
// completion without any job being resubmitted.
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

	w := NewWorld(Epoch)
	rep1, err := openScripted(w, "coordinator", core.ReplicaConfig{Dir: dir})
	if err != nil {
		return res, err
	}
	rep1.Start()
	store1 := rep1.Store()

	// The agents' heartbeat loops survive the coordinator they were
	// started under: a request to the dead process fails at the
	// transport, and the agents carry on against its successor.
	if err := bootFleet(w, cfg.Nodes, "coordinator"); err != nil {
		return res, err
	}
	if err := submitTraining(rep1.Coordinator(), cfg.Jobs); err != nil {
		return res, err
	}
	res.SubmittedJobs = cfg.Jobs

	w.Clock.Advance(10 * time.Minute)
	if !cfg.NoSnapshot {
		// Async checkpoint under live traffic; the log keeps the tail.
		if err := rep1.WAL().Checkpoint(); err != nil {
			return res, err
		}
	}
	w.Clock.Advance(5 * time.Minute)

	res.PendingAtCrash = store1.CountJobsInState(db.JobPending)
	res.RunningAtCrash = store1.CountJobsInState(db.JobRunning)
	before := store1.ExportState()

	// --- Crash. Only what fsync guaranteed survives: no final
	// snapshot, no handover. The old coordinator's in-memory world
	// (agent handles, relaunch metadata, sweep timers) dies here.
	w.Hosts.Serve("coordinator", nil)
	if err := rep1.Kill(); err != nil {
		return res, err
	}

	// --- Restart at the same address: recover a fresh store from
	// snapshot + WAL tail, and compare it with the pre-crash image before
	// anything re-arms. No beat arrives before the clock moves on; the
	// agents' next ones are answered with a request to re-register
	// (their running workloads never stopped).
	rep2, err := openScripted(w, "coordinator", core.ReplicaConfig{Dir: dir})
	if err != nil {
		return res, err
	}
	defer rep2.Kill()
	coord2, store2 := rep2.Coordinator(), rep2.Store()
	res.Recovery = rep2.WAL().Recovery
	after := store2.ExportState()
	res.RecoveredJobs = len(after.Jobs)
	res.RecoveredNodes = len(after.Nodes)
	// A table is intact when no record was lost, changed or added.
	touched := make(map[string]bool)
	for _, d := range append(invariant.DiffStates(before, after), invariant.DiffStates(after, before)...) {
		touched[d.Table] = true
	}
	res.NodesIntact, res.JobsIntact, res.AllocsIntact = !touched["node"], !touched["job"], !touched["allocation"]
	rep2.Start()

	// A post-restart submission must not collide with recovered IDs.
	newID, err := coord2.SubmitJob(TrainingJobSubmission("user-new", workload.SmallCNN, 5*time.Minute))
	if err != nil {
		return res, err
	}
	res.NewJobID = newID

	w.Clock.Advance(cfg.PostRecovery)

	res.CompletedAfterRecovery = store2.CountJobsInState(db.JobCompleted)
	res.LostJobs = cfg.Jobs + 1 - len(store2.ListJobs())
	return res, nil
}

// openScripted opens a coordinator replica of a scripted scenario and
// serves it at host: one-minute beats, batches of eight, and one token
// secret for every replica, as the daemons share one auth.key — a
// credential one coordinator issued verifies at its successor.
func openScripted(w *World, host string, cfg core.ReplicaConfig) (*core.Replica, error) {
	c := &cfg.Coordinator
	c.HeartbeatInterval, c.BatchSize, c.AuthSecret = time.Minute, 8, []byte("gpunion-sim-auth-secret")
	return w.Open(host, cfg)
}

// bootFleet boots n 2×RTX3090 nodes, each holding an endpoint per
// coordinator address and joined through the first that accepts it;
// from then on each agent sends everything through its active endpoint.
func bootFleet(w *World, n int, coords ...string) error {
	for i := 0; i < n; i++ {
		if _, err := w.Boot(agent.Config{MachineID: fmt.Sprintf("node-%02d", i+1), Kernel: "5.15",
			ProgressTick: 30 * time.Second}, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}, coords...); err != nil {
			return err
		}
	}
	return nil
}

// submitTraining queues n five-minute-checkpointed SmallCNN jobs.
func submitTraining(coord *core.Coordinator, n int) error {
	for i := 0; i < n; i++ {
		if _, err := coord.SubmitJob(TrainingJobSubmission(fmt.Sprintf("user-%d", i%3), workload.SmallCNN, 5*time.Minute)); err != nil {
			return err
		}
	}
	return nil
}
