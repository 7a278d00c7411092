package sim

import (
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
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

	w := newScripted()
	rep1, err := w.open("coordinator", core.ReplicaConfig{Dir: dir})
	if err != nil {
		return res, err
	}
	rep1.Start()
	store1 := rep1.Store()

	// The agents' heartbeat loops survive the coordinator they were
	// started under: a request to the dead process fails at the
	// transport, and the agents carry on against its successor.
	if err := w.fleet(cfg.Nodes, "coordinator"); err != nil {
		return res, err
	}
	if err := submitTraining(rep1.Coordinator(), cfg.Jobs); err != nil {
		return res, err
	}
	res.SubmittedJobs = cfg.Jobs

	w.clock.Advance(10 * time.Minute)
	if !cfg.NoSnapshot {
		// Async checkpoint under live traffic; the log keeps the tail.
		if err := rep1.WAL().Checkpoint(); err != nil {
			return res, err
		}
	}
	w.clock.Advance(5 * time.Minute)

	res.PendingAtCrash = store1.CountJobsInState(db.JobPending)
	res.RunningAtCrash = store1.CountJobsInState(db.JobRunning)
	before := store1.ExportState()

	// --- Crash. Only what fsync guaranteed survives: no final
	// snapshot, no handover. The old coordinator's in-memory world
	// (agent handles, relaunch metadata, sweep timers) dies here.
	w.hosts.serve("coordinator", nil)
	if err := rep1.Kill(); err != nil {
		return res, err
	}

	// --- Restart at the same address: recover a fresh store from
	// snapshot + WAL tail, and compare it with the pre-crash image before
	// anything re-arms. No beat arrives before the clock moves on; the
	// agents' next ones are answered with a request to re-register
	// (their running workloads never stopped).
	rep2, err := w.open("coordinator", core.ReplicaConfig{Dir: dir})
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

	w.clock.Advance(cfg.PostRecovery)

	res.CompletedAfterRecovery = store2.CountJobsInState(db.JobCompleted)
	res.LostJobs = cfg.Jobs + 1 - len(store2.ListJobs())
	return res, nil
}

// scripted is the world of the scripted scenarios: one simulated clock,
// the LAN checkpoint store (it outlives every coordinator process, like
// a WAL directory), one flight recorder every coordinator incarnation
// and agent records into, and the address book.
type scripted struct {
	clock *simclock.Sim
	ckpts *checkpoint.Store
	trace *obs.Recorder
	hosts *simHosts
}

func newScripted() *scripted {
	clock := simclock.NewSim(Epoch)
	return &scripted{clock: clock, ckpts: checkpoint.NewStore(storage.NewMemStore(0)),
		trace: obs.NewRecorder(clock, 0), hosts: &simHosts{}}
}

// open opens a coordinator replica of the deployment and serves it at
// host: one-minute beats, batches of eight, and one token secret for
// every replica, as the daemon's share one auth.key — a credential one
// coordinator issued verifies at its successor.
func (w *scripted) open(host string, cfg core.ReplicaConfig) (*core.Replica, error) {
	c := &cfg.Coordinator
	c.HeartbeatInterval, c.BatchSize, c.AuthSecret = time.Minute, 8, []byte("gpunion-sim-auth-secret")
	rep, err := core.OpenReplica(cfg, w.clock, w.ckpts, w.trace)
	if err == nil {
		w.hosts.serve(host, rep.Coordinator().Handler(func(addr string) core.AgentHandle {
			return &agent.Client{BaseURL: addr, HTTPClient: &http.Client{Transport: w.hosts}}
		}))
	}
	return rep, err
}

// fleet builds n 2×RTX3090 nodes, each answering at its machine ID and
// holding an endpoint per coordinator address, as with cmd/agent
// -coordinator a,b, and joins them through the first; from then on each
// agent sends everything through its active endpoint.
func (w *scripted) fleet(n int, coords ...string) error {
	for i := 0; i < n; i++ {
		ag := agent.New(agent.Config{MachineID: fmt.Sprintf("node-%02d", i+1), Kernel: "5.15",
			ProgressTick: 30 * time.Second}, w.clock, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}, w.ckpts, w.trace)
		w.hosts.serve(ag.MachineID(), ag.Handler())
		ag.SetEndpoints(endpoints(&http.Client{Transport: w.hosts}, coords...))
		if err := joinLocal(ag); err != nil {
			return err
		}
	}
	return nil
}

// endpoints names each coordinator address an endpoint, reached
// through client.
func endpoints(client *http.Client, addrs ...string) []agent.Endpoint {
	eps := make([]agent.Endpoint, len(addrs))
	for i, addr := range addrs {
		eps[i] = agent.Endpoint{ID: addr, Link: &core.Client{BaseURL: "http://" + addr, HTTPClient: client}}
	}
	return eps
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

// simHosts is the sims' network: a name→handler switch over
// api.InProcess. Each request goes to the handler its URL's host names
// now, so a restarted coordinator keeps its address; a host with no
// handler is down, and a request to it fails at the transport, as to a
// process that is gone.
type simHosts struct{ at sync.Map }

// serve puts handler at host; nil takes the host down.
func (s *simHosts) serve(host string, handler http.Handler) { s.at.Store(host, handler) }

// handler returns what serves host now (nil: down).
func (s *simHosts) handler(host string) http.Handler {
	v, _ := s.at.Load(host)
	h, _ := v.(http.Handler)
	return h
}

// RoundTrip implements http.RoundTripper.
func (s *simHosts) RoundTrip(req *http.Request) (*http.Response, error) {
	handler := s.handler(req.URL.Host)
	if handler == nil {
		return nil, fmt.Errorf("sim: %s is down", req.URL.Host)
	}
	return api.InProcess{Handler: handler}.RoundTrip(req)
}
