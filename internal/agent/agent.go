// Package agent implements GPUnion's provider agent (§3.4): the
// lightweight daemon every participating node runs. It owns the node's
// container runtime and GPU inventory, executes workloads, takes
// periodic ALC checkpoints, reports telemetry, and — above all —
// enforces provider supremacy: the local kill-switch, pause, and
// departure controls always work immediately, without coordinator
// round-trips.
package agent

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/workload"
)

// Errors returned by the agent.
var (
	ErrDeparted   = errors.New("agent: node has departed")
	ErrPaused     = errors.New("agent: node is paused")
	ErrJobUnknown = errors.New("agent: unknown job")
	// ErrStaleLeader rejects a coordinator-initiated write whose leader
	// epoch is older than the highest this agent has observed: the
	// sender is a deposed leader (a zombie), and honoring its launches
	// or kills would fork the platform's view of the node. This is the
	// agent-side half of lease fencing — the agent is the shared
	// resource that verifies fencing tokens.
	ErrStaleLeader = errors.New("agent: request from stale leader epoch")
)

// defaultProgressTick is how often the agent advances running jobs and
// refreshes device telemetry unless configured otherwise.
const defaultProgressTick = time.Second

// Endpoint is one coordinator replica the agent can talk to.
type Endpoint struct {
	// ID names the endpoint: its address.
	ID string
	// Link is the transport to that replica.
	Link Link
}

// Config parameterises an Agent.
type Config struct {
	// MachineID is the node's unique identity; the daemon derives it
	// from its advertise address (config.Agent.MachineID).
	MachineID string
	// Kernel is the host kernel version.
	Kernel string
	// DefaultCheckpointInterval applies when a launch does not set one.
	DefaultCheckpointInterval time.Duration
	// ProgressTick is how often jobs advance and telemetry refreshes
	// (default 1 s; long simulations use coarser ticks).
	ProgressTick time.Duration
	// ForceFullCheckpoints disables incremental captures — every
	// periodic checkpoint ships the whole state. Used by the network
	// traffic ablation (§4) to quantify what incrementality saves.
	ForceFullCheckpoints bool
	// Health surfaces the node's gray-failure observations (XID errors,
	// throttling, slowdowns); each built heartbeat drains it and ships
	// the events to the coordinator. Nil means no health reporting.
	Health gpu.HealthSource
}

// Agent is the provider-side daemon.
type Agent struct {
	cfg     Config
	clock   simclock.Clock
	runtime *container.Runtime
	ckpts   checkpoint.Path
	trace   *obs.Recorder
	// metrics is the agent's persistent registry: gauges are refreshed
	// in place on each scrape and counters accumulate across scrapes —
	// a per-scrape registry would reset every counter to zero.
	metrics *monitor.Registry
	// launchesTotal and beatFailures back the two counters New registers.
	launchesTotal *monitor.Counter
	beatFailures  *monitor.Counter

	mu sync.Mutex
	// jobs is the node's one record of what runs on it: a job is in it
	// exactly while its container holds a GPU (Launch binds, endLocked
	// releases, both under mu).
	jobs     map[string]*jobRun
	paused   bool
	departed bool
	token    string
	// addr and storageBytes are what the last Join advertised; Beat's
	// re-joins repeat them.
	addr         string
	storageBytes int64
	// stopped is set by Stop: neither the progress timer nor the heartbeat
	// loop (beats, armed by the first successful Join) re-arms after it.
	// turns counts the loop's armed or running turns, for Stop to wait on.
	stopped bool
	ticker  simclock.Timer
	beats   simclock.Timer
	turns   sync.WaitGroup
	// beatSeq numbers every heartbeat this agent builds, so the
	// coordinator can drop duplicate deliveries of the same beat.
	beatSeq uint64
	// pendingHealth buffers health events collected from cfg.Health but
	// not yet shipped: a beat carries at most api.MaxHealthEventsPerBeat,
	// and the overflow waits (bounded — oldest events drop first) for
	// the next beat rather than being lost, as do the events of a beat
	// nobody answered.
	pendingHealth []gpu.HealthEvent
	// endpoints is the coordinator replica set and active the index of
	// the replica every message goes to; Redirect rotates it on
	// ErrNotLeader or transport failure. Empty for a stand-alone agent.
	endpoints []Endpoint
	active    int
	// unreported holds the terminal job reports whose attempt the
	// coordinator did not answer, by job ID; Beat re-sends them after
	// every answered beat until each is answered.
	unreported map[string]api.JobUpdateRequest
	// coordEpoch is the highest leader epoch this agent has observed
	// (registration acks, heartbeat acks, launch/kill envelopes). A
	// coordinator-initiated write carrying a lower non-zero epoch is
	// from a deposed leader and is rejected with ErrStaleLeader.
	coordEpoch uint64
}

// Link is the agent's request path to one coordinator replica:
// api.CoordinatorClient, over a socket or, in tests and simulations,
// over api.InProcess into the coordinator's own Handler. It carries the
// four messages a provider agent sends (§3.4) — registration,
// heartbeat, job report and departure notice — each a typed request the
// agent builds with its token, leader epoch and protocol version.
type Link interface {
	Register(api.RegisterRequest) (api.RegisterResponse, error)
	Heartbeat(api.HeartbeatRequest) (api.HeartbeatResponse, error)
	JobUpdate(api.JobUpdateRequest) error
	Depart(api.DepartRequest) error
}

// jobRun is the agent-local state of one running workload.
type jobRun struct {
	jobID       string
	containerID string
	dev         *gpu.Device   // the bound GPU, held until the job ends
	training    *workload.Job // nil for interactive sessions
	sessionEnds time.Time     // for interactive sessions
	ckptEvery   time.Duration
	lastCkpt    time.Time
	ckptSeq     int
	// restoredAt and restoredStep are the head of the chain the run
	// resumed from (zero for a fresh start).
	restoredAt   int
	restoredStep int64
	lastTick     time.Time
	// pausedUntil marks the end of a stall: the restore of the chain the
	// run resumes from, until its bytes arrive, and each checkpoint
	// creation, while the workload's state is written out (large,
	// memory-intensive models pay proportionally more per capture).
	pausedUntil time.Time
	// residual carries compute time smaller than one training step
	// between ticks, so coarse tick granularity never loses progress.
	residual time.Duration
}

// New creates the agent of a node with one GPU per entry of specs, in a
// container runtime of its own. Checkpoints are saved through ckpts, and
// a launch resumes from the newest verifiable chain ckpts resolves —
// usually a *checkpoint.Store backed by the platform's LAN store, where
// every checkpoint goes; the Path interface is the data-plane seam the
// simulations' LAN model and fault injection sit under.
//
// The agent records its lifecycle events (job start, checkpoint, kill,
// completion, pause, departure) in trace, stamped with clock; a nil
// trace records nothing.
//
// The agent starts stand-alone; SetEndpoints names the coordinator, and
// the first successful Join starts the heartbeat loop on clock.
func New(cfg Config, clock simclock.Clock, specs []gpu.Spec, ckpts checkpoint.Path, trace *obs.Recorder) *Agent {
	if cfg.DefaultCheckpointInterval <= 0 {
		cfg.DefaultCheckpointInterval = 10 * time.Minute
	}
	if cfg.ProgressTick <= 0 {
		cfg.ProgressTick = defaultProgressTick
	}
	a := &Agent{
		cfg:        cfg,
		clock:      clock,
		runtime:    container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(specs...)),
		ckpts:      ckpts,
		trace:      trace,
		jobs:       make(map[string]*jobRun),
		unreported: make(map[string]api.JobUpdateRequest),
		metrics:    monitor.NewRegistry(),
	}
	a.launchesTotal, _ = a.metrics.Counter("gpunion_agent_launches_total",
		"Workload launches accepted by this agent", nil)
	a.beatFailures, _ = a.metrics.Counter("gpunion_agent_heartbeat_failures_total",
		"Heartbeats that failed even after the agent's redirect and re-join", nil)
	a.scheduleTick()
	return a
}

// record traces one of this node's lifecycle events; a container ID,
// when there is one, goes in the detail under "container".
func (a *Agent) record(at time.Time, kind, job, container string) {
	var detail map[string]string
	if container != "" {
		detail = map[string]string{"container": container}
	}
	a.trace.RecordAt(at, kind, job, a.cfg.MachineID, detail)
}

// Metrics exposes the agent's persistent registry.
func (a *Agent) Metrics() *monitor.Registry { return a.metrics }

// MachineID returns the node identity.
func (a *Agent) MachineID() string { return a.cfg.MachineID }

// SetEndpoints installs the coordinator replica set the agent may talk
// to; the first entry becomes the active endpoint. This is where
// failover policy lives: every message goes to the active endpoint's
// link, and Beat rotates it through Redirect when a replica answers
// api.ErrNotLeader or does not answer at all.
func (a *Agent) SetEndpoints(eps []Endpoint) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.endpoints = append([]Endpoint(nil), eps...)
	a.active = 0
}

// ActiveEndpoint returns the endpoint currently receiving this agent's
// messages (the zero Endpoint for a stand-alone agent).
func (a *Agent) ActiveEndpoint() Endpoint {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.endpoints) == 0 {
		return Endpoint{}
	}
	return a.endpoints[a.active]
}

// Redirect rotates the active endpoint to the next one, round-robin,
// and reports whether it changed. An api.ErrNotLeader names no leader,
// so the agent tries the next address it holds.
func (a *Agent) Redirect() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.endpoints) < 2 {
		return false
	}
	a.active = (a.active + 1) % len(a.endpoints)
	return true
}

// ObserveEpoch records a leader epoch the agent saw in a coordinator
// reply or request; the highest one becomes the fencing floor for
// coordinator-initiated writes.
func (a *Agent) ObserveEpoch(epoch uint64) {
	a.mu.Lock()
	if epoch > a.coordEpoch {
		a.coordEpoch = epoch
	}
	a.mu.Unlock()
}

// CoordEpoch returns the highest leader epoch observed so far.
func (a *Agent) CoordEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.coordEpoch
}

// fenceEpochLocked rejects a write from a leader epoch below the
// observed floor. Zero epochs are always admitted — standalone
// coordinators and legacy senders carry none. Caller holds a.mu.
func (a *Agent) fenceEpochLocked(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	if epoch < a.coordEpoch {
		return fmt.Errorf("%w: got %d, observed %d", ErrStaleLeader, epoch, a.coordEpoch)
	}
	if epoch > a.coordEpoch {
		a.coordEpoch = epoch
	}
	return nil
}

// Token returns the stored credential.
func (a *Agent) Token() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.token
}

// Runtime exposes the container runtime (telemetry, tests).
func (a *Agent) Runtime() *container.Runtime { return a.runtime }

// RegisterRequest builds the agent's registration payload.
func (a *Agent) RegisterRequest(addr string, storageBytes int64) api.RegisterRequest {
	return api.RegisterRequest{
		Envelope:     a.envelope(),
		MachineID:    a.cfg.MachineID,
		Addr:         addr,
		GPUs:         a.gpuInfo(),
		Kernel:       a.cfg.Kernel,
		StorageBytes: storageBytes,
		RunningJobs:  a.runningJobs(),
	}
}

func (a *Agent) gpuInfo() []db.GPUInfo {
	devs := a.runtime.Inventory().Devices()
	out := make([]db.GPUInfo, 0, len(devs))
	for _, d := range devs {
		out = append(out, db.GPUInfo{
			DeviceID:        d.ID,
			Model:           d.Spec.Model,
			Arch:            string(d.Spec.Arch),
			MemoryMiB:       d.Spec.MemoryMiB,
			CapabilityMajor: d.Spec.Capability.Major,
			CapabilityMinor: d.Spec.Capability.Minor,
		})
	}
	return out
}

// Launch starts a workload per the coordinator's request: image
// admission, GPU binding, restore, and checkpoint scheduling. The
// checks, the binding and the job's entry are one critical section, so
// a duplicate launch or a kill racing it finds the job either fully
// started or not there at all. The answer carries the step the job
// resumes from.
func (a *Agent) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	now := a.clock.Now()
	a.mu.Lock()
	run, started, err := a.launchLocked(req, now)
	a.mu.Unlock()
	if err != nil {
		return api.LaunchResponse{}, err
	}
	if started != nil {
		// Recorded after the unlock: a Recorder.Observe callback runs
		// here, synchronously, and may call back into the agent.
		a.launchesTotal.Inc()
		a.trace.RecordAt(now, obs.KindJobStarted, run.jobID, a.cfg.MachineID, started)
	}
	return api.LaunchResponse{ContainerID: run.containerID, DeviceID: run.dev.ID, RestoreStep: run.restoredStep}, nil
}

// launchLocked is Launch's critical section. A launch that starts the
// job returns the detail of its job.started event; a duplicate it
// answers with the running copy returns none. Callers hold a.mu.
func (a *Agent) launchLocked(req api.LaunchRequest, now time.Time) (*jobRun, map[string]string, error) {
	if err := a.fenceEpochLocked(req.LeaderEpoch); err != nil {
		return nil, nil, err
	}
	if a.departed {
		return nil, nil, ErrDeparted
	}
	if a.paused {
		return nil, nil, ErrPaused
	}
	if run, exists := a.jobs[req.JobID]; exists {
		// Idempotent ack: a duplicate launch (retried or replayed
		// request) for a job this node already executes re-acknowledges
		// the existing placement instead of failing. Job IDs are unique
		// platform-wide, so a same-ID launch is always the same job —
		// erroring here would make the coordinator believe the placement
		// failed while the workload keeps running. One that would resume
		// from another chain head than this copy did relaunches a job
		// requeued while the copy ran on: refused, and the next beat gets
		// the copy killed as an orphan. Resolving the head fetches
		// nothing.
		if head, _ := a.restoreChain(run); head.Seq != run.restoredAt {
			return nil, nil, fmt.Errorf("agent: %s runs here from checkpoint %d", req.JobID, run.restoredAt)
		}
		return run, nil, nil
	}
	ctrID := "ctr-" + req.JobID
	dev, err := a.runtime.Bind(container.Spec{
		ID:        ctrID,
		ImageName: req.ImageName,
		Resources: container.Resources{
			GPUMemoryMiB:  req.GPUMemMiB,
			MinCapability: api.CapabilityOf(req.CapabilityMajor, req.CapabilityMinor),
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("agent: binding a GPU: %w", err)
	}

	run := &jobRun{
		jobID:       req.JobID,
		containerID: ctrID,
		dev:         dev,
		ckptEvery:   time.Duration(req.CheckpointIntervalSec) * time.Second,
		lastCkpt:    now,
		lastTick:    now,
	}
	if run.ckptEvery <= 0 {
		run.ckptEvery = a.cfg.DefaultCheckpointInterval
	}
	detail := map[string]string{"container": ctrID}
	switch {
	case req.Training != nil:
		run.training = workload.NewJob(req.JobID, *req.Training)
		if head, chain := a.restoreChain(run); len(chain) > 0 {
			// Resume from the chain's head. The workload steps once the
			// chain's bytes have arrived, and its checkpoint cadence
			// counts from then.
			run.training.RestoreTo(head.Progress)
			run.ckptSeq, run.restoredAt, run.restoredStep = head.Seq, head.Seq, head.Progress.Step
			var bytes int64
			for _, ck := range chain {
				bytes += ck.Bytes
			}
			delay := a.ckpts.Fetch(chain)
			run.pausedUntil = now.Add(delay)
			run.lastCkpt = run.pausedUntil
			detail["restore_step"] = strconv.FormatInt(head.Progress.Step, 10)
			detail["restore_bytes"] = strconv.FormatInt(bytes, 10)
			detail["restore_delay"] = delay.String()
		}
	case req.Kind == "interactive":
		d := time.Duration(req.SessionSeconds) * time.Second
		if d <= 0 {
			d = 2 * time.Hour
		}
		run.sessionEnds = now.Add(d)
	}
	a.jobs[req.JobID] = run
	return run, detail, nil
}

// restoreChain resolves the chain a launch of run's job resumes from:
// the newest verifiable one on the agent's checkpoint path, and its
// head. A job that keeps no state (no training) or has no restorable
// chain starts fresh: a zero head and no chain. Callers hold a.mu.
func (a *Agent) restoreChain(run *jobRun) (checkpoint.Checkpoint, []checkpoint.Checkpoint) {
	if run.training == nil {
		return checkpoint.Checkpoint{}, nil
	}
	chain, err := a.ckpts.RestoreChain(run.jobID)
	if err != nil || len(chain) == 0 {
		return checkpoint.Checkpoint{}, nil
	}
	return chain[len(chain)-1], chain
}

// endLocked is the one way a job ends on this node, whatever ends it (a
// kill order, completion, the kill-switch, a departure): the run is
// forgotten and its GPU released. A run in the table holds its GPU, so
// the release fails only on a bug; Kill reports it, and the paths that
// end jobs on their own have nobody to tell. Callers hold a.mu.
func (a *Agent) endLocked(run *jobRun) error {
	delete(a.jobs, run.jobID)
	return a.runtime.Release(run.containerID)
}

// endAllLocked ends every job on the node and returns their IDs, sorted.
// Callers hold a.mu.
func (a *Agent) endAllLocked() []string {
	ids := make([]string, 0, len(a.jobs))
	for id, run := range a.jobs {
		ids = append(ids, id)
		_ = a.endLocked(run)
	}
	sort.Strings(ids)
	return ids
}

// KillJob terminates a job on a coordinator's request, enforcing the
// epoch fence: a kill from a deposed leader is rejected. Local paths
// (kill-switch, provider controls) use Kill directly — provider
// supremacy is not subject to fencing.
func (a *Agent) KillJob(req api.KillRequest) error {
	a.mu.Lock()
	if err := a.fenceEpochLocked(req.LeaderEpoch); err != nil {
		a.mu.Unlock()
		return err
	}
	a.mu.Unlock()
	return a.Kill(req.JobID)
}

// Kill terminates one job immediately (coordinator-requested or local).
func (a *Agent) Kill(jobID string) error {
	a.mu.Lock()
	run, ok := a.jobs[jobID]
	var err error
	if ok {
		err = a.endLocked(run)
	}
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrJobUnknown, jobID)
	}
	if err != nil {
		return fmt.Errorf("agent: releasing the GPU of %s: %w", jobID, err)
	}
	a.record(a.clock.Now(), obs.KindJobKilled, jobID, run.containerID)
	return nil
}

// Checkpoint captures a checkpoint of the job on the coordinator's
// order and persists it. The order is fenced like a launch or a kill: a
// deposed leader's is rejected with ErrStaleLeader.
func (a *Agent) Checkpoint(req api.CheckpointRequest) (api.CheckpointResponse, error) {
	a.mu.Lock()
	if err := a.fenceEpochLocked(req.LeaderEpoch); err != nil {
		a.mu.Unlock()
		return api.CheckpointResponse{}, err
	}
	run, ok := a.jobs[req.JobID]
	a.mu.Unlock()
	if !ok {
		return api.CheckpointResponse{}, fmt.Errorf("%w: %s", ErrJobUnknown, req.JobID)
	}
	if run.training == nil {
		return api.CheckpointResponse{}, fmt.Errorf("agent: job %s has no checkpointable state", req.JobID)
	}
	return a.captureCheckpoint(run, req.Incremental)
}

// fullCheckpointEvery bounds the incremental chain: every sixth capture
// is a full snapshot and obsolete predecessors are pruned, keeping the
// restore transfer bounded (a full image plus at most five deltas).
const fullCheckpointEvery = 6

// captureCheckpoint runs under a.mu, as the progress tick does, so two
// captures never share a sequence number; it traces after the unlock.
func (a *Agent) captureCheckpoint(run *jobRun, incremental bool) (api.CheckpointResponse, error) {
	now := a.clock.Now()
	a.mu.Lock()
	run.ckptSeq++
	src := checkpoint.Source{
		JobID:    run.jobID,
		Image:    run.training.Image(),
		Progress: run.training.Progress(),
		Env: checkpoint.Env{
			KernelVersion:  a.cfg.Kernel,
			GPUArch:        run.dev.Spec.Arch,
			HasCUDAContext: true, // every run holds a GPU
			GPUMemMiB:      run.training.Spec.GPUMemMiB,
		},
	}
	if a.cfg.ForceFullCheckpoints || (run.ckptSeq-1)%fullCheckpointEvery == 0 {
		incremental = false
	}
	ck, err := checkpoint.ALC{}.Capture(src, run.ckptSeq, incremental, now)
	if err != nil {
		err = fmt.Errorf("agent: capturing checkpoint: %w", err)
	} else if err = a.ckpts.Save(ck); err != nil {
		err = fmt.Errorf("agent: saving checkpoint: %w", err)
	}
	if err != nil {
		run.ckptSeq--
		a.mu.Unlock()
		return api.CheckpointResponse{}, err
	}
	if !ck.Incremental {
		// Best effort: drop checkpoints the new full snapshot obsoletes.
		_, _ = a.ckpts.Prune(run.jobID)
	}
	run.lastCkpt = now
	if end := now.Add(run.training.Spec.CheckpointCreationTime()); end.After(run.pausedUntil) {
		run.pausedUntil = end // a capture during a restore does not cut it short
	}
	a.mu.Unlock() // a Recorder.Observe callback may call back into the agent
	a.trace.RecordAt(now, obs.KindJobCheckpoint, run.jobID, a.cfg.MachineID, map[string]string{
		"seq": strconv.Itoa(ck.Seq), "bytes": strconv.FormatInt(ck.Bytes, 10), "incremental": strconv.FormatBool(ck.Incremental),
	})
	return api.CheckpointResponse{Seq: ck.Seq, Bytes: ck.Bytes, Step: ck.Progress.Step}, nil
}

// KillSwitch is the provider's emergency control: every workload dies
// immediately, no checkpoints, no coordinator involvement. It returns
// the job IDs terminated.
func (a *Agent) KillSwitch() []string {
	a.mu.Lock()
	ids := a.endAllLocked()
	a.mu.Unlock()
	a.trace.RecordAt(a.clock.Now(), obs.KindKillSwitch, "", a.cfg.MachineID, map[string]string{"killed": strconv.Itoa(len(ids))})
	return ids
}

// Pause stops accepting new allocations; running jobs continue.
func (a *Agent) Pause() {
	a.mu.Lock()
	a.paused = true
	a.mu.Unlock()
	a.record(a.clock.Now(), obs.KindNodePaused, "", "")
}

// Resume re-enables allocations.
func (a *Agent) Resume() {
	a.mu.Lock()
	a.paused = false
	a.mu.Unlock()
	a.record(a.clock.Now(), obs.KindNodeResumed, "", "")
}

// Paused reports whether new allocations are paused.
func (a *Agent) Paused() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.paused
}

// Departed reports whether the node has left the platform.
func (a *Agent) Departed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.departed
}

// Depart executes a voluntary departure.
//
// Scheduled: every training job gets a final checkpoint within the grace
// period (jobs whose checkpoint cannot complete in time lose progress to
// their last periodic checkpoint), then all workloads stop and the
// coordinator is notified.
//
// Temporary: same as scheduled, but the node intends to return; the
// coordinator keeps its registration and may migrate work back later.
//
// Emergency: everything dies instantly and the coordinator is NOT
// notified — heartbeat loss is the only signal, exactly as when the
// power cable leaves the wall.
//
// A departed agent is finished: it launches nothing and sends no beat
// again. The provider comes back the one way a machine does, as a fresh
// agent under the same machine ID that registers.
func (a *Agent) Depart(reason api.DepartReason, grace time.Duration) {
	now := a.clock.Now()
	if reason != api.DepartEmergency {
		// Final checkpoints, best effort, within the grace budget.
		var budget time.Duration = grace
		for _, run := range a.snapshotRuns() {
			if run.training == nil {
				continue
			}
			cost := run.training.Spec.CheckpointCreationTime()
			if grace > 0 && cost > budget {
				continue // no time left for this job's final snapshot
			}
			if _, err := a.captureCheckpoint(run, true); err == nil && grace > 0 {
				budget -= cost
			}
		}
	}

	a.mu.Lock()
	a.departed = true
	a.endAllLocked()
	a.ticker.Stop()
	a.mu.Unlock()

	if link := a.ActiveEndpoint().Link; link != nil && reason != api.DepartEmergency {
		_ = link.Depart(api.DepartRequest{
			Envelope:  a.envelope(),
			MachineID: a.cfg.MachineID, Token: a.Token(), Reason: reason,
		})
	}
	a.trace.RecordAt(now, obs.KindNodeDeparted, "", a.cfg.MachineID, map[string]string{"reason": string(reason)})
}

// Status builds the agent's self-report.
func (a *Agent) Status() api.AgentStatus {
	jobs := a.runningJobs()
	a.mu.Lock()
	paused, departed := a.paused, a.departed
	a.mu.Unlock()
	return api.AgentStatus{
		MachineID:   a.cfg.MachineID,
		Paused:      paused,
		Departed:    departed,
		RunningJobs: jobs,
		Telemetry:   a.runtime.Inventory().Snapshot(),
	}
}

// runningJobs lists the job table's IDs, sorted.
func (a *Agent) runningJobs() []string {
	a.mu.Lock()
	jobs := make([]string, 0, len(a.jobs))
	for id := range a.jobs {
		jobs = append(jobs, id)
	}
	a.mu.Unlock()
	sort.Strings(jobs)
	return jobs
}

// Join registers the node through the active endpoint and adopts what
// the coordinator answers: the credential for subsequent messages and
// the leader epoch as the fencing floor. addr is where the coordinator
// reaches this agent. The first Join that succeeds starts the heartbeat
// loop at the interval the coordinator answers; a re-join keeps the
// loop running.
func (a *Agent) Join(addr string, storageBytes int64) (api.RegisterResponse, error) {
	a.mu.Lock()
	a.addr, a.storageBytes = addr, storageBytes
	a.mu.Unlock()
	link := a.ActiveEndpoint().Link
	if link == nil {
		return api.RegisterResponse{}, errNoEndpoint
	}
	resp, err := link.Register(a.RegisterRequest(addr, storageBytes))
	if err != nil {
		return resp, err
	}
	a.mu.Lock()
	a.token = resp.Token
	if a.beats == nil && resp.HeartbeatInterval > 0 {
		a.armBeatLocked(resp.HeartbeatInterval)
	}
	a.mu.Unlock()
	a.ObserveEpoch(resp.LeaderEpoch)
	return resp, nil
}

// JoinAny is the agent's start-up join: Join through the active
// endpoint and, while that fails (a standby, a dead address), through
// each next one in turn, once round the set. It returns the last error
// when no endpoint accepted the node.
func (a *Agent) JoinAny(addr string, storageBytes int64) (resp api.RegisterResponse, err error) {
	a.mu.Lock()
	tries := max(len(a.endpoints), 1)
	a.mu.Unlock()
	for range tries {
		if resp, err = a.Join(addr, storageBytes); err == nil {
			return resp, nil
		}
		a.Redirect()
	}
	return resp, err
}

// armBeatLocked schedules the heartbeat loop's next turn, every after
// now. Each turn beats and re-arms, until Stop or a departure: a
// departed node sends nothing again, and silence is the emergency
// signal. Callers hold a.mu.
func (a *Agent) armBeatLocked(every time.Duration) {
	if a.stopped {
		return
	}
	a.turns.Add(1)
	a.beats = a.clock.AfterFunc(every, func() {
		defer a.turns.Done()
		if a.Departed() {
			return
		}
		_, _ = a.Beat()
		a.mu.Lock()
		a.armBeatLocked(every)
		a.mu.Unlock()
	})
}

// errNoEndpoint is what a stand-alone agent answers when asked to talk
// to a coordinator.
var errNoEndpoint = errors.New("agent: no coordinator endpoint")

// Beat is one turn of the agent's heartbeat loop: build a heartbeat,
// send it through the active endpoint, then do whatever the answer
// demands. A beat nobody answered puts its health events back in front
// of the backlog for the next beat, whose cut bounds it; the answer may
// be all that was lost, so delivery is at least once. A coordinator that no longer knows the
// node (it restarted, or the credential expired) asks for a re-join; a
// fenced replica's api.ErrNotLeader rotates to the next endpoint and
// re-joins there; a 401 (the credential no longer
// verifies: the coordinator restarted with a new signing secret)
// re-joins in place; an endpoint that did not serve the beat at all is
// rotated away from, and the next Beat tries its neighbour.
// The returned error is what is still wrong after that — nil once a
// demanded re-join succeeded. A beat that ends with no error was
// answered, so the job reports still kept are re-sent after it; a beat
// that ends with one counts on gpunion_agent_heartbeat_failures_total.
func (a *Agent) Beat() (api.HeartbeatResponse, error) {
	req := a.HeartbeatRequest()
	var resp api.HeartbeatResponse
	err := errNoEndpoint
	if link := a.ActiveEndpoint().Link; link != nil {
		resp, err = link.Heartbeat(req)
	}
	if err == nil {
		a.ObserveEpoch(resp.LeaderEpoch)
	} else {
		resp = api.HeartbeatResponse{}
		a.mu.Lock()
		a.pendingHealth = slices.Concat(req.HealthEvents, a.pendingHealth)
		a.mu.Unlock()
	}
	var nl api.ErrNotLeader
	var refused api.Error
	switch {
	case errors.As(err, &nl):
		a.Redirect()
		err = a.rejoin()
	case errors.As(err, &refused) && refused.Code == http.StatusUnauthorized:
		err = a.rejoin()
	case err != nil:
		a.Redirect()
	case resp.Reregister:
		err = a.rejoin()
	}
	if err != nil {
		a.beatFailures.Inc()
		return resp, err
	}
	a.resendReports()
	return resp, nil
}

// rejoin repeats the last Join through the active endpoint.
func (a *Agent) rejoin() error {
	a.mu.Lock()
	addr, storageBytes := a.addr, a.storageBytes
	a.mu.Unlock()
	_, err := a.Join(addr, storageBytes)
	return err
}

// report sends one terminal job report through the active endpoint,
// once, when the job ends: nothing local waits on it. A report the
// coordinator does not answer is kept for resendReports; a stand-alone
// agent has nobody to tell.
func (a *Agent) report(req api.JobUpdateRequest) {
	link := a.ActiveEndpoint().Link
	if link == nil || link.JobUpdate(req) == nil {
		return
	}
	a.mu.Lock()
	a.unreported[req.JobID] = req
	a.mu.Unlock()
}

// resendReports re-sends the kept job reports, in job order, with the
// current credential and epoch — a re-join may have replaced both —
// and forgets each one the coordinator answers (a report dropped as
// stale is answered too), unless a newer report for the same job took
// its place meanwhile.
func (a *Agent) resendReports() {
	a.mu.Lock()
	kept := make([]api.JobUpdateRequest, 0, len(a.unreported))
	for _, req := range a.unreported {
		kept = append(kept, req)
	}
	a.mu.Unlock()
	link := a.ActiveEndpoint().Link
	if len(kept) == 0 || link == nil {
		return
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].JobID < kept[j].JobID })
	for _, req := range kept {
		sent := req
		sent.Envelope, sent.Token = a.envelope(), a.Token()
		if link.JobUpdate(sent) != nil {
			continue
		}
		a.mu.Lock()
		if a.unreported[req.JobID] == req {
			delete(a.unreported, req.JobID)
		}
		a.mu.Unlock()
	}
}

// envelope stamps an agent→coordinator request with the protocol
// version and the highest leader epoch observed.
func (a *Agent) envelope() api.Envelope {
	return api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: a.CoordEpoch()}
}

// HeartbeatRequest builds the periodic status update. Each built beat
// carries a fresh sequence number; delivering the same request twice is
// therefore detectable at the coordinator, while two distinct beats are
// not conflated.
func (a *Agent) HeartbeatRequest() api.HeartbeatRequest {
	st := a.Status()
	var collected []gpu.HealthEvent
	if a.cfg.Health != nil {
		collected = a.cfg.Health.CollectHealthEvents()
	}
	a.mu.Lock()
	a.beatSeq++
	seq := a.beatSeq
	health := a.takeHealthLocked(collected)
	a.mu.Unlock()
	return api.HeartbeatRequest{
		Envelope:     a.envelope(),
		MachineID:    a.cfg.MachineID,
		Token:        a.Token(),
		Telemetry:    st.Telemetry,
		RunningJobs:  st.RunningJobs,
		Paused:       st.Paused,
		BeatSeq:      seq,
		HealthEvents: health,
	}
}

// maxHealthBacklog bounds the agent-side carry-over of unshipped
// health events (a few beats' worth; beyond it the oldest drop).
const maxHealthBacklog = 4 * api.MaxHealthEventsPerBeat

// takeHealthLocked merges freshly collected events into the pending
// buffer and cuts the next beat's bounded slice. Callers hold a.mu.
func (a *Agent) takeHealthLocked(collected []gpu.HealthEvent) []gpu.HealthEvent {
	a.pendingHealth = append(a.pendingHealth, collected...)
	if over := len(a.pendingHealth) - maxHealthBacklog; over > 0 {
		a.pendingHealth = append(a.pendingHealth[:0], a.pendingHealth[over:]...)
	}
	if len(a.pendingHealth) == 0 {
		return nil
	}
	n := len(a.pendingHealth)
	if n > api.MaxHealthEventsPerBeat {
		n = api.MaxHealthEventsPerBeat
	}
	out := make([]gpu.HealthEvent, n)
	copy(out, a.pendingHealth[:n])
	a.pendingHealth = append(a.pendingHealth[:0], a.pendingHealth[n:]...)
	return out
}

// snapshotRuns returns the current runs without holding the lock during
// the caller's iteration.
func (a *Agent) snapshotRuns() []*jobRun {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*jobRun, 0, len(a.jobs))
	for _, r := range a.jobs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].jobID < out[j].jobID })
	return out
}

// scheduleTick arms the periodic progress/checkpoint timer.
func (a *Agent) scheduleTick() {
	a.mu.Lock()
	if a.departed || a.stopped {
		a.mu.Unlock()
		return
	}
	a.ticker = a.clock.AfterFunc(a.cfg.ProgressTick, func() {
		a.tick()
		a.scheduleTick()
	})
	a.mu.Unlock()
}

// Stop halts the agent's progress timer and heartbeat loop (shutdown
// path for daemons); it returns once no heartbeat turn is running.
func (a *Agent) Stop() {
	a.mu.Lock()
	a.stopped = true
	a.ticker.Stop()
	if a.beats != nil && a.beats.Stop() {
		a.turns.Done() // the pending turn will never run
	}
	a.mu.Unlock()
	a.turns.Wait()
}

// tick advances every running job by the elapsed wall time, refreshes
// device telemetry, fires due checkpoints, and completes finished work.
//
// The node's wall clock is not trusted to be continuous: clock skew
// (an NTP step, a fault injection) can jump it in either direction
// between ticks. A backward jump rebases every agent-local deadline by
// the jump width, so progress resumes on the next tick instead of
// stalling until the clock re-crosses its old high-water mark. A
// forward jump is clamped — a single tick may account at most one
// period of real work plus one period of catch-up, so a discontinuity
// can never mint training progress that was not computed.
func (a *Agent) tick() {
	now := a.clock.Now()
	for _, run := range a.snapshotRuns() {
		a.mu.Lock()
		done, due := a.advanceLocked(run, now)
		a.mu.Unlock()
		if done {
			a.finishJob(run, db.JobCompleted, now)
		} else if due {
			if _, err := a.captureCheckpoint(run, true); err != nil {
				// Checkpoint failures must not kill the job; surface in the trace.
				a.trace.RecordAt(now, obs.KindJobCheckpointFailed, run.jobID, a.cfg.MachineID,
					map[string]string{"checkpoint_error": err.Error()})
			}
		}
	}
}

// advanceLocked is one tick of one run, under the lock a capture takes
// (captureCheckpoint); it reports whether the run is done and whether
// its periodic checkpoint is due. Callers hold a.mu.
func (a *Agent) advanceLocked(run *jobRun, now time.Time) (done, due bool) {
	elapsed := now.Sub(run.lastTick)
	if elapsed < 0 {
		a.rebaseRun(run, -elapsed, now)
		return false, false
	}
	if elapsed == 0 {
		return false, false
	}
	if limit := 2 * a.cfg.ProgressTick; elapsed > limit {
		// Shift every absolute deadline forward by the unaccounted
		// width — symmetric with rebaseRun — so checkpoint cadence,
		// stall remainders and session length keep their relative
		// distance instead of being stolen by the jump.
		skip := elapsed - limit
		run.lastCkpt = run.lastCkpt.Add(skip)
		if !run.pausedUntil.IsZero() {
			run.pausedUntil = run.pausedUntil.Add(skip)
		}
		if !run.sessionEnds.IsZero() {
			run.sessionEnds = run.sessionEnds.Add(skip)
		}
		elapsed = limit
	}
	run.lastTick = now
	switch {
	case run.training != nil:
		return a.tickTraining(run, elapsed, now)
	case !run.sessionEnds.IsZero():
		a.setDeviceLoad(run, 0.3, 0)
		return !now.Before(run.sessionEnds), false
	}
	return false, false
}

// rebaseRun shifts a run's absolute deadlines back by delta after the
// clock jumped backwards, preserving every relative distance (checkpoint
// cadence, stall remainder, session length).
func (a *Agent) rebaseRun(run *jobRun, delta time.Duration, now time.Time) {
	run.lastTick = now
	run.lastCkpt = run.lastCkpt.Add(-delta)
	if !run.pausedUntil.IsZero() {
		run.pausedUntil = run.pausedUntil.Add(-delta)
	}
	if !run.sessionEnds.IsZero() {
		run.sessionEnds = run.sessionEnds.Add(-delta)
	}
}

func (a *Agent) tickTraining(run *jobRun, elapsed time.Duration, now time.Time) (done, due bool) {
	job := run.training
	// Checkpoint-creation stalls consume training time: deduct any part
	// of the elapsed window spent writing state out.
	if run.pausedUntil.After(now) {
		elapsed = 0
	} else if stall := run.pausedUntil.Sub(now.Add(-elapsed)); stall > 0 {
		elapsed -= stall
	}
	// Accumulate sub-step leftovers so integer step counts per tick do
	// not systematically under-run the job.
	budget := elapsed + run.residual
	steps := job.Spec.StepsIn(budget, run.dev.Spec)
	if st := job.Spec.StepTime(run.dev.Spec); st > 0 {
		run.residual = budget - time.Duration(steps)*st
	}
	job.Advance(steps)
	a.setDeviceLoad(run, 0.95, job.Spec.GPUMemMiB)

	return job.Done(), !job.Done() && run.ckptEvery > 0 && now.Sub(run.lastCkpt) >= run.ckptEvery
}

func (a *Agent) setDeviceLoad(run *jobRun, util float64, memMiB int64) {
	run.dev.SetUtilization(util)
	if memMiB > 0 {
		run.dev.SetUsedMemory(memMiB)
	}
}

// finishJob ends the run, unless something ended it first, and reports
// the outcome to the coordinator.
func (a *Agent) finishJob(run *jobRun, state db.JobState, now time.Time) {
	a.mu.Lock()
	if a.jobs[run.jobID] == run {
		_ = a.endLocked(run)
	}
	a.mu.Unlock()
	var step int64
	if run.training != nil {
		step = run.training.Step()
	}
	a.record(now, obs.KindJobCompleted, run.jobID, run.containerID)
	a.report(api.JobUpdateRequest{
		Envelope:  a.envelope(),
		MachineID: a.cfg.MachineID, Token: a.Token(),
		JobID: run.jobID, State: state, Step: step,
	})
}

// RunningJob returns the live training job object (tests, telemetry).
func (a *Agent) RunningJob(jobID string) (*workload.Job, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	run, ok := a.jobs[jobID]
	if !ok || run.training == nil {
		return nil, false
	}
	return run.training, true
}
