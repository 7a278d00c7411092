package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/chaos"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

// ChaosConfig assembles a full platform — coordinator, agents, LAN
// model, optionally a write-ahead log — and subjects it to a seeded
// fault schedule while auditing the invariants in internal/invariant.
type ChaosConfig struct {
	// Defs is the fleet (default: the paper campus).
	Defs []NodeDef
	// Seed drives schedule generation and traffic.
	Seed int64
	// Spec parameterises fault composition. Duration defaults to 8 h;
	// Nodes is filled from Defs.
	Spec chaos.Spec
	// Jobs is the sustained training-job population (default 16).
	Jobs int
	// EnableWAL attaches a write-ahead log (required for WAL-fault and
	// coordinator-crash injections).
	EnableWAL bool
	// AuditEvery is the periodic invariant-audit cadence (default 5 min).
	AuditEvery time.Duration
	// Drain runs the platform past the last fault so in-flight
	// migrations settle before the final audit (default 2 h).
	Drain time.Duration
	// WithNetwork attaches the LAN model.
	WithNetwork bool
	// Replicated runs the coordinator as a replicated pair: a leader
	// holding a lease from an in-process arbiter plus a warm standby
	// applying the leader's log via WAL shipping. Implies EnableWAL.
	// Required for the LeaderKills / SplitBrains fault families.
	Replicated bool
}

// ChaosResult is what one chaos run observed.
type ChaosResult struct {
	// Schedule is the injected fault sequence (replayable evidence).
	Schedule chaos.Schedule
	// Report carries per-fault observations and every invariant
	// violation, including the final post-drain audit.
	Report *chaos.Report
	// Violations is Report.Violations: every audit's, the final
	// post-drain one included.
	Violations []invariant.Violation
	// SubmittedJobs / CompletedJobs measure useful work done under
	// chaos.
	SubmittedJobs int
	CompletedJobs int
	// Recoveries counts coordinator kill/restart cycles performed.
	Recoveries int
	// Failovers counts completed leader handoffs (a standby promoted
	// and took the lease) in Replicated runs.
	Failovers int
	// WALFaultsInjected counts disk faults actually delivered.
	WALFaultsInjected int
	// CkptFaultsInjected counts checkpoint blobs actually damaged;
	// CkptCorruptionsDetected counts frames the checkpoint store's CRC
	// verification rejected (the detector firing on that damage).
	CkptFaultsInjected      int
	CkptCorruptionsDetected int
	// CkptReadFaultsInjected counts reads that returned rotted copies
	// during read-rot windows (stored bytes stayed intact).
	CkptReadFaultsInjected int
	// DupReplaysDelivered counts control messages actually replayed
	// during duplicate-delivery windows (each verified side-effect
	// free), by message kind ("heartbeat", "job-update", "launch").
	DupReplaysDelivered map[string]int
	// DurabilityLost reports whether any mutation failed to log during
	// a fault window (expected under WAL-fault schedules; recovery
	// equivalence is then checked via a post-heal checkpoint).
	DurabilityLost bool
	// Trace is the flight recorder's retained window: every platform
	// event, fault injection, and audited violation as simclock-
	// timestamped entries. TraceDropped counts ring-buffer evictions.
	Trace        []obs.Event
	TraceDropped uint64
	// MetricsText is the surviving coordinator's end-of-run metrics
	// exposition (after a final derived-gauge refresh).
	MetricsText string
}

// RunChaos executes one seeded chaos scenario.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	var res ChaosResult
	if len(cfg.Defs) == 0 {
		cfg.Defs = PaperCampus()
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 16
	}
	if cfg.Spec.Duration <= 0 {
		cfg.Spec.Duration = 8 * time.Hour
	}
	if cfg.AuditEvery <= 0 {
		cfg.AuditEvery = 5 * time.Minute
	}
	if cfg.Drain <= 0 {
		cfg.Drain = 2 * time.Hour
	}
	if len(cfg.Spec.Nodes) == 0 {
		for _, d := range cfg.Defs {
			cfg.Spec.Nodes = append(cfg.Spec.Nodes, d.ID)
		}
	}
	if cfg.Replicated {
		// Replication is WAL shipping; a replicated pair without a log
		// has nothing to ship.
		cfg.EnableWAL = true
	}

	h, err := newChaosHarness(cfg)
	if err != nil {
		return res, err
	}
	defer h.stop()

	sched := chaos.Generate(cfg.Spec, cfg.Seed)
	h.startTraffic(cfg.Seed + 1)
	eng := chaos.NewEngine(h.Clock, h)
	eng.SetRecorder(h.Trace)
	rep := eng.Execute(sched, cfg.AuditEvery, cfg.Drain)

	res.Schedule = sched
	res.Report = rep
	res.Violations = rep.Violations
	store := h.currentStore()
	res.SubmittedJobs = h.submitted
	res.CompletedJobs = store.CountJobsInState(db.JobCompleted)
	res.Recoveries = h.recoveries
	res.Failovers = h.failovers
	if h.fs != nil {
		res.WALFaultsInjected = h.fs.Injected()
	}
	res.CkptFaultsInjected = h.blob.Injected()
	res.CkptReadFaultsInjected = h.blob.ReadInjected()
	res.CkptCorruptionsDetected = h.Ckpts.CorruptionsDetected()
	h.mu.Lock()
	res.DupReplaysDelivered = h.dupReplays
	h.dupReplays = nil
	h.mu.Unlock()
	res.DurabilityLost = h.sawDurabilityLoss
	res.Trace = h.Trace.Events()
	res.TraceDropped = h.Trace.Dropped()
	if text, err := h.currentCoord().MetricsSnapshot(); err == nil {
		res.MetricsText = text
	}
	return res, nil
}

// The chaos harness's fixed cadence: agents beat once a simulated
// minute and advance their work in one-minute ticks.
const (
	chaosHeartbeat    = time.Minute
	chaosProgressTick = time.Minute
)

// chaosHarness implements chaos.Platform over the real components on
// one World. Agents and coordinators talk over chaosWire, which
// delivers every message to the replica or agent its address names in
// the world's address book: each agent at its ID, a replica at each
// coordinator address, which a restarted coordinator or a fresh standby
// takes over from its predecessor. The world's recorder, a deep one, is
// also fed the chaos engine's fault and violation annotations.
type chaosHarness struct {
	*World
	cfg      ChaosConfig
	blob     *chaos.FaultBlobStore
	fs       *chaos.FaultFS
	coordCfg core.Config
	// coordAddrs are the coordinator addresses, one endpoint each for
	// every agent.
	coordAddrs []string
	nodeIDs    []string
	// skewed holds each node's adjustable clock (the skew seam); like
	// the health sources it models the hardware, so an agent rebooted
	// after a crash runs on the same one.
	skewed map[string]*simclock.Skewed

	mu sync.Mutex
	// serving is the replica the harness drives and audits: the one
	// coordinator of a standalone run, the leader of a replicated pair.
	// After a leader kill it stays the dead leader until the standby's
	// promotion installs the successor.
	serving *replica
	// agents holds each node's agent: a crashed node has none and a
	// departed one its finished agent, until ReturnNode boots a fresh
	// one.
	agents map[string]*agent.Agent
	// windows holds the open fault windows the wire and the checks
	// consult, by kind and target: control and data partitions (a data
	// partition fails checkpoint transfers too, on top of the control
	// cut), gray degradation and partial loss.
	// The engine heals a target only when its last window closes, so a
	// set is enough.
	windows map[faultWindow]bool
	// skews mirrors the currently injected clock offsets, so audits
	// know which nodes' only fault is a bounded skew.
	skews map[string]time.Duration
	// dupOn marks an open duplicate-delivery window; dupCounter varies
	// the replay count; dupReplays tallies replays by message kind.
	dupOn      bool
	dupCounter int
	dupReplays map[string]int
	// found collects violations found between audit points, for the
	// next ExtraChecks drain.
	found []invariant.Violation
	// audits are the stream recorders over the serving store,
	// re-attached whenever a successor store is installed.
	audits streamAudits
	// healthSrcs holds each agent's injectable health source (the
	// gray-degrade seam; the pump re-injects events every heartbeat
	// interval while the node's gray window is open); lossRng drives the
	// heartbeat drops of partial-loss windows, consumed only inside them
	// so other schedules' determinism is untouched.
	healthSrcs map[string]*gpu.FakeHealthSource
	lossRng    *rand.Rand
	// unhealthySince records when each node was first observed below
	// the unhealthy threshold, feeding the degraded-node-drained grace.
	unhealthySince map[string]time.Time
	// graceUntil suppresses agent-vs-store phantom checks right after a
	// heal or restart, while reconciliation heartbeats are in flight.
	graceUntil        time.Time
	recoveries        int
	submitted         int
	sawDurabilityLoss bool

	// --- Replicated mode (cfg.Replicated) ---

	// lease is the in-process arbiter every replica competes for.
	lease *core.Lease
	// leaderLog audits lease grants and write acceptances;
	// leaderVsSeen marks how many of its violations earlier audits
	// already reported.
	leaderLog    *invariant.LeaderLog
	leaderVsSeen int
	replicaSeq   int
	// standby is the warm standby: a fenced replica from birth, tailing
	// the serving leader's log (pumped from the leader's OnDurable hook)
	// while its own leadership loop tries the lease.
	standby *replica
	// splitOpen marks an open split-brain window; zombie is the isolated
	// ex-leader (at zombieEpoch) so heal can probe and dispose of it.
	splitOpen   bool
	zombie      *replica
	zombieEpoch uint64
	// tmpDirs are the WAL directories the harness created, removed on
	// stop.
	tmpDirs   []string
	failovers int
}

// faultWindow is one kind of fault window open on one node.
type faultWindow struct {
	kind   chaos.Kind
	target string
}

// replica is one core.Replica of the run, the address it answers at,
// and, in replicated mode, its identity and two fault seams: the
// cuttable link to the arbiter and the adjustable clock (both nil for
// the standalone coordinator).
type replica struct {
	*core.Replica
	addr string
	dir  string
	id   string
	cut  *chaosLeaseClient
	skew *simclock.Skewed
}

// chaosLeaseClient wraps the arbiter with a cuttable link: a cut client
// models the leader partitioned from the coordination service — its
// Acquire, Renew and Epoch fail at the transport, and the replica must
// live off its cached grant until that lapses.
type chaosLeaseClient struct {
	core.LeaseClient
	cut atomic.Bool
}

var errLeaseUnreachable = fmt.Errorf("chaos: lease arbiter unreachable")

func (c *chaosLeaseClient) Acquire(holder string) (uint64, time.Time, error) {
	if c.cut.Load() {
		return 0, time.Time{}, errLeaseUnreachable
	}
	return c.LeaseClient.Acquire(holder)
}

func (c *chaosLeaseClient) Renew(holder string, epoch uint64) (time.Time, error) {
	if c.cut.Load() {
		return time.Time{}, errLeaseUnreachable
	}
	return c.LeaseClient.Renew(holder, epoch)
}

func (c *chaosLeaseClient) Epoch() uint64 {
	if c.cut.Load() {
		return 0
	}
	return c.LeaseClient.Epoch()
}

// chaosAuthSecret keeps issued credentials valid across coordinator
// restarts, as the real daemon does by persisting its secret next to
// the log.
var chaosAuthSecret = []byte("gpunion-chaos-harness-auth-secret")

func newChaosHarness(cfg ChaosConfig) (*chaosHarness, error) {
	// The checkpoint store's backing blobs sit behind the corruption
	// seam: injected bit flips and truncations land in the real stored
	// bytes, and the store's CRC frames must catch them on read.
	blob := chaos.NewFaultBlobStore(storage.NewMemStore(0))
	w := NewWorld(Epoch)
	w.Ckpts = checkpoint.NewStore(blob)
	// A deep ring: chaos runs are the flight recorder's primary
	// customer, and fault localization needs the whole run retained.
	w.Trace = obs.NewRecorder(w.Clock, 1<<16)
	if cfg.WithNetwork {
		w.attachLAN(cfg.Defs)
	}
	h := &chaosHarness{
		World:          w,
		cfg:            cfg,
		blob:           blob,
		skewed:         make(map[string]*simclock.Skewed),
		agents:         make(map[string]*agent.Agent),
		windows:        make(map[faultWindow]bool),
		skews:          make(map[string]time.Duration),
		healthSrcs:     make(map[string]*gpu.FakeHealthSource),
		lossRng:        rand.New(rand.NewSource(cfg.Seed + 2)),
		unhealthySince: make(map[string]time.Time),
	}
	for _, d := range cfg.Defs {
		h.nodeIDs = append(h.nodeIDs, d.ID)
	}
	sort.Strings(h.nodeIDs)
	h.coordCfg = core.Config{
		HeartbeatInterval: chaosHeartbeat,
		BatchSize:         8,
		AuthSecret:        chaosAuthSecret,
	}

	dir := ""
	if cfg.EnableWAL {
		var err error
		if dir, err = h.tempDir(); err != nil {
			return nil, err
		}
		h.fs = chaos.NewFaultFS()
		// Async checkpoints on the simulated clock (the Snapshotter's
		// own ticker is wall-clock): one per simulated hour.
		var checkpointLoop func()
		checkpointLoop = func() {
			if m := h.currentServing().WAL(); m != nil {
				_ = m.Checkpoint()
			}
			if h.Clock.Now().Before(Epoch.Add(cfg.Spec.Duration + cfg.Drain)) {
				h.Clock.AfterFunc(time.Hour, checkpointLoop)
			}
		}
		h.Clock.AfterFunc(time.Hour, checkpointLoop)
	}
	if cfg.Replicated {
		// 30 s grants against a 2 min re-grant grace: a dead leader's
		// slot stays fenced for at most 2.5 min of simulated time before
		// a standby can win it.
		h.lease = core.NewLease(core.NewMemLeaseStore(), h.Clock, 30*time.Second, 2*time.Minute)
		h.leaderLog = invariant.NewLeaderLog()
	}
	h.coordAddrs = []string{"coordinator"}
	if cfg.Replicated {
		h.coordAddrs = []string{"coord-a", "coord-b"}
	}
	rep, err := h.openReplica(h.coordAddrs[0], dir, "")
	if err != nil {
		return nil, err
	}
	if !cfg.Replicated {
		h.install(rep)
	}
	// Replicated, the first turn of the leadership loop takes the free
	// lease, and the promotion callback installs rep and opens a standby.
	rep.Start()
	if h.currentServing() != rep {
		return nil, fmt.Errorf("chaos: initial replica failed to take the free lease")
	}

	for i, d := range cfg.Defs {
		h.skewed[d.ID] = simclock.NewSkewed(h.Clock)
		h.healthSrcs[d.ID] = gpu.NewFakeHealthSource()
		h.powerOn(i)
	}
	return h, nil
}

// powerOn boots node cfg.Defs[i]'s agent process on the world, as the
// daemon starts when the machine comes on, and joins it (rejoin). It
// runs on the node's skewable clock (the clock-skew seam) and health
// source, writes checkpoints through a per-node gate that a data-plane
// partition severs, and sends through a wire of its own node. Every
// coordinator address is an endpoint: the agent finds a new leader on
// its own beats.
func (h *chaosHarness) powerOn(i int) {
	d := h.cfg.Defs[i]
	ag := h.boot(agent.Config{
		MachineID: d.ID, Kernel: "5.15", ProgressTick: chaosProgressTick,
		Health: h.healthSrcs[d.ID],
	}, h.skewed[d.ID], d.GPUs, func() bool { return h.inWindow(chaos.KindDataPartition, d.ID) },
		chaosWire{h: h, node: d.ID}, h.coordAddrs)
	h.mu.Lock()
	h.agents[d.ID] = ag
	h.mu.Unlock()
	h.rejoin(ag)
}

// agent returns the node's running agent, nil while it is crashed.
func (h *chaosHarness) agent(id string) *agent.Agent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.agents[id]
}

func (h *chaosHarness) stop() {
	h.mu.Lock()
	reps := []*replica{h.serving, h.standby, h.zombie}
	h.mu.Unlock()
	for _, r := range reps {
		if r != nil {
			_ = r.Kill()
		}
	}
	for _, id := range h.nodeIDs {
		if ag := h.agent(id); ag != nil {
			ag.Stop()
		}
	}
	for _, d := range h.tmpDirs {
		os.RemoveAll(d)
	}
}

// tempDir creates a WAL directory the harness removes on stop.
func (h *chaosHarness) tempDir() (string, error) {
	dir, err := os.MkdirTemp("", "gpunion-chaos-wal-*")
	if err == nil {
		h.mu.Lock()
		h.tmpDirs = append(h.tmpDirs, dir)
		h.mu.Unlock()
	}
	return dir, err
}

func (h *chaosHarness) currentServing() *replica {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.serving
}

func (h *chaosHarness) currentCoord() *core.Coordinator { return h.currentServing().Coordinator() }

func (h *chaosHarness) currentStore() db.Store { return h.currentServing().Store() }

// streamAudits are the harness's recorders over the serving store's
// mutation stream: beat folds its node-image and beat-delta records to
// verify beat-delta equivalence at every audit point, and health does
// the same for the health-fold records.
type streamAudits struct {
	mu     sync.Mutex
	beat   *invariant.BeatAudit
	health *invariant.HealthAudit
	cancel []func()
}

// attach (re)binds the recorders to the store passed in. Called at
// quiescent installation points — setup, coordinator recovery, takeover
// completion — where no writes race the base snapshots.
func (a *streamAudits) attach(store db.Store) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, cancel := range a.cancel {
		cancel()
	}
	var cb, ch func()
	a.beat, cb = invariant.NewBeatAudit(store)
	a.health, ch = invariant.NewHealthAudit(store)
	a.cancel = []func(){cb, ch}
}

// check runs every attached recorder against the store.
func (a *streamAudits) check(store db.Store) []invariant.Violation {
	a.mu.Lock()
	beat, health := a.beat, a.health
	a.mu.Unlock()
	if beat == nil {
		return nil
	}
	return append(beat.Check(store), health.Check(store)...)
}

func (h *chaosHarness) noteDurabilityLoss() {
	h.mu.Lock()
	h.sawDurabilityLoss = true
	h.mu.Unlock()
}

// openReplica opens one core.Replica of the run — the same assembly
// the daemon boots — at addr, logging to dir, or tailing followDir as a
// standby that logs to dir once promoted. In replicated mode it
// competes for the lease under a fresh identity, through its own
// cuttable lease client and on its own adjustable clock (the seams the
// split-brain fault pulls on), with promoted as its OnPromote. The log
// keeps the harness's disk-fault FS and durability-loss tap, and ships
// semi-synchronously when replicated.
func (h *chaosHarness) openReplica(addr, dir, followDir string) (*replica, error) {
	rep := &replica{addr: addr, dir: dir}
	cfg := core.ReplicaConfig{
		Dir: dir, FollowDir: followDir,
		WAL: wal.Config{
			FS:            h.fs,
			OnAppendError: func(error) { h.noteDurabilityLoss() },
		},
		Coordinator: h.coordCfg,
	}
	var clock simclock.Clock = h.Clock
	if h.cfg.Replicated {
		h.mu.Lock()
		h.replicaSeq++
		rep.id = fmt.Sprintf("coord-%d", h.replicaSeq)
		h.mu.Unlock()
		rep.cut = &chaosLeaseClient{LeaseClient: h.lease}
		rep.skew = simclock.NewSkewed(h.Clock)
		clock = rep.skew
		cfg.Coordinator.Lease, cfg.Coordinator.ReplicaID = rep.cut, rep.id
		cfg.WAL.OnDurable = h.onLeaderDurable
		cfg.OnPromote = func(epoch uint64, err error) { h.promoted(rep, epoch, err) }
	}
	// Every replica reaches the agent registered at an address through
	// the wire, which routes by the address's host.
	var err error
	if rep.Replica, err = h.open(addr, cfg, clock, chaosWire{h: h}); err != nil {
		return nil, err
	}
	return rep, nil
}

// onLeaderDurable runs inside the serving replica's mutation hook,
// after the record hit the log and before the store acks the write: it
// audits the write against the leadership log and ships the tail to the
// standby. Pumping here makes replication semi-synchronous — by the
// time any client observes a mutation, the standby can replay it.
func (h *chaosHarness) onLeaderDurable(db.Mutation) {
	h.mu.Lock()
	lead, sb := h.serving, h.standby
	h.mu.Unlock()
	if lead == nil || sb == nil {
		return
	}
	h.leaderLog.RecordWrite(lead.Coordinator().Epoch(), lead.id)
	if err := sb.Pump(); err != nil {
		h.flag(invariant.Violation{Rule: "replication-ship-failed",
			Detail: fmt.Sprintf("shipping acked mutations to the standby: %v", err)})
	}
	// Export the post-pump shipping backlog.
	lead.Coordinator().ObserveReplication(sb.Lag(lead.Store().CurrentLSN()))
}

// silenced reports whether the node is down (crashed: no agent runs) or
// its control-plane path is cut. A data-plane partition implies the
// control cut too: it models the whole link going dark, not just the
// heartbeat port.
func (h *chaosHarness) silenced(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.silencedLocked(id)
}

// silencedLocked is silenced for a caller holding h.mu.
func (h *chaosHarness) silencedLocked(id string) bool {
	return h.agents[id] == nil || h.windows[faultWindow{chaos.KindPartition, id}] || h.windows[faultWindow{chaos.KindDataPartition, id}]
}

// inWindow reports whether a window of the kind is open on the target.
func (h *chaosHarness) inWindow(kind chaos.Kind, target string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windows[faultWindow{kind, target}]
}

// setWindow opens or closes the kind's window on each target.
func (h *chaosHarness) setWindow(kind chaos.Kind, open bool, targets ...string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, t := range targets {
		if open {
			h.windows[faultWindow{kind, t}] = true
		} else {
			delete(h.windows, faultWindow{kind, t})
		}
	}
}

// startGrace opens the reconciliation grace after a heal, return or
// restart (see graceUntil).
func (h *chaosHarness) startGrace() {
	h.mu.Lock()
	h.graceUntil = h.Clock.Now().Add(3 * chaosHeartbeat)
	h.mu.Unlock()
}

// maybeReplay delivers 1–3 extra copies of an already-processed control
// message while a duplicate-delivery window is open, verifying every
// replay leaves the store untouched. Runs on the driver goroutine, at a
// quiescent point by construction.
func (h *chaosHarness) maybeReplay(kind, label string, deliver func()) {
	h.mu.Lock()
	if !h.dupOn {
		h.mu.Unlock()
		return
	}
	h.dupCounter++
	replays := 1 + h.dupCounter%3
	if h.dupReplays == nil {
		h.dupReplays = make(map[string]int)
	}
	h.dupReplays[kind]++
	h.mu.Unlock()
	store := h.currentStore()
	for i := 0; i < replays; i++ {
		h.flag(chaos.VerifyIdempotent(store, label, deliver)...)
	}
}

// chaosWire is the harness's network: every agent↔coordinator message
// crosses it as an HTTP request into the shipped handlers
// (api.InProcess) at the host its URL names (h.Hosts; a down one fails
// at the transport). Each agent's api.CoordinatorClient sends through a
// wire of its own node; every replica's api.AgentClient shares one wire
// without a node. One fault model covers both directions: a silenced node neither sends nor receives, and each request to or from
// it fails at the transport, as over a dead link. Inside a partial-loss
// window a node's heartbeat is lost in flight on a coin toss: the agent
// built and sent it, and sees the same transport error.
type chaosWire struct {
	h *chaosHarness
	// node is the sending agent; empty on the coordinators' side.
	node string
}

var errUnreachable = fmt.Errorf("chaos: node unreachable")

// RoundTrip implements http.RoundTripper.
func (w chaosWire) RoundTrip(req *http.Request) (*http.Response, error) {
	h, node := w.h, w.node
	if node == "" {
		node = req.URL.Host
	}
	receiver := h.Hosts.Handler(req.URL.Host)
	if receiver == nil || h.silenced(node) || (w.node != "" && req.URL.Path == "/v1/heartbeat" && h.dropBeat(node)) {
		return nil, errUnreachable
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	// send delivers the request's bytes to the receiver as it stands now;
	// a duplicate is the same bytes sent again. Neither the in-process
	// round trip nor reading its recorded body can fail.
	send := func() (*http.Response, []byte) {
		again := req.WithContext(req.Context())
		again.Body = io.NopCloser(bytes.NewReader(body))
		resp, _ := api.InProcess{Handler: receiver}.RoundTrip(again)
		out, _ := io.ReadAll(resp.Body)
		return resp, out
	}
	was, wasErr := h.currentStore().GetNode(node) // a registration's baseline
	resp, out := send()
	if resp.StatusCode < http.StatusMultipleChoices {
		h.tap(req.URL.Path, node, body, out, send)
		if req.URL.Path == "/v1/register" && wasErr == nil {
			h.checkHealthKept(was)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(out))
	return resp, nil
}

// tap runs the harness's observers on one answered request, reading the
// bytes that crossed. Inside a duplicate-delivery window
// an answered heartbeat, job report or launch is re-sent byte for byte:
// the coordinator's sequence guard and terminal-state pre-check must
// make the copies no-ops, and the agent must re-acknowledge a launch
// with the same answer, not fail it or start a second copy.
func (h *chaosHarness) tap(path, node string, body, out []byte, send func() (*http.Response, []byte)) {
	label := path + " " + node + ": " + string(body)
	resend := func() { send() }
	switch path {
	case "/v1/heartbeat":
		var ack api.HeartbeatResponse
		_ = json.Unmarshal(out, &ack)
		if ack.Acknowledged && !ack.Reregister {
			h.maybeReplay("heartbeat", label, resend)
		}
	case "/v1/jobupdate":
		h.maybeReplay("job-update", label, resend)
	case "/v1/launch":
		h.maybeReplay("launch", label, func() {
			if _, again := send(); !bytes.Equal(again, out) {
				h.flag(invariant.Violation{Rule: "no-duplicate-side-effects",
					Detail: fmt.Sprintf("%s not idempotent: answered %s, first %s", label, again, out)})
			}
		})
	}
}

// checkHealthKept is the health-laundering audit on every answered
// registration of a node the serving store held as was: a registration
// (a re-join after a restart or failover among them) folds nothing, so
// a node below the unhealthy threshold must keep its score exactly.
func (h *chaosHarness) checkHealthKept(was db.NodeRecord) {
	if was.HealthScore() >= monitor.UnhealthyBelow {
		return
	}
	now, err := h.currentStore().GetNode(was.ID)
	if err != nil || (now.Health == was.Health && now.HealthAt.Equal(was.HealthAt)) {
		return
	}
	h.flag(invariant.Violation{Rule: "no-placement-on-unhealthy",
		Detail: fmt.Sprintf("node %s re-registered at health %v; the store held %v (folded %s) and registration folds nothing",
			was.ID, now.HealthScore(), was.HealthScore(), was.HealthAt.Format(time.RFC3339))})
}

// flag queues violations for the next ExtraChecks drain.
func (h *chaosHarness) flag(vs ...invariant.Violation) {
	h.mu.Lock()
	h.found = append(h.found, vs...)
	h.mu.Unlock()
}

// dropBeat reports whether a heartbeat from node id falls inside an
// open partial-loss window and loses the coin toss.
func (h *chaosHarness) dropBeat(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.windows[faultWindow{chaos.KindPartialLoss, id}] && h.lossRng.Intn(2) == 0
}

// startTraffic maintains a population of cfg.Jobs concurrent training
// jobs: an initial burst, then periodic top-ups until the fault horizon.
func (h *chaosHarness) startTraffic(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	specs := []workload.TrainingSpec{workload.SmallCNN, workload.SmallCNN, workload.SmallTransformer}
	submit := func() {
		spec := specs[rng.Intn(len(specs))]
		req := TrainingJobSubmission(fmt.Sprintf("user-%d", rng.Intn(5)), spec, 10*time.Minute)
		if _, err := h.currentCoord().SubmitJob(req); err == nil {
			h.mu.Lock()
			h.submitted++
			h.mu.Unlock()
		}
	}
	for i := 0; i < h.cfg.Jobs; i++ {
		submit()
	}
	end := Epoch.Add(h.cfg.Spec.Duration)
	var topUp func()
	topUp = func() {
		if !h.Clock.Now().Before(end) {
			return
		}
		store := h.currentStore()
		active := store.CountJobsInState(db.JobPending) + store.CountJobsInState(db.JobRunning)
		for ; active < h.cfg.Jobs; active++ {
			submit()
		}
		h.Clock.AfterFunc(15*time.Minute, topUp)
	}
	h.Clock.AfterFunc(15*time.Minute, topUp)
}

// --- chaos.Platform ---

// Store implements chaos.Platform.
func (h *chaosHarness) Store() db.Store { return h.currentStore() }

// CrashNode implements a power loss: the agent process is gone with
// everything in its memory. Workloads die without checkpoints,
// heartbeats stop, nobody tells the coordinator, and the node's address
// stops answering. Crashing a departed node changes nothing: it runs
// and sends nothing already.
func (h *chaosHarness) CrashNode(id string) {
	ag := h.agent(id)
	if ag == nil || ag.Departed() {
		return
	}
	ag.Stop()
	h.Hosts.Serve(id, nil)
	h.mu.Lock()
	delete(h.agents, id)
	h.mu.Unlock()
}

// DepartNode announces a departure with a 5-minute checkpoint grace.
func (h *chaosHarness) DepartNode(id string, temporary bool) {
	ag := h.agent(id)
	if ag == nil || ag.Departed() || h.silenced(id) {
		return
	}
	reason := api.DepartScheduled
	if temporary {
		reason = api.DepartTemporary
	}
	ag.Depart(reason, 5*time.Minute)
}

// ReturnNode brings a crashed or departed node back online: the node
// boots a fresh agent under its ID, as the daemon starts when the
// machine comes back, and joins. A departed node's finished agent is
// stopped first.
func (h *chaosHarness) ReturnNode(id string) {
	i := slices.IndexFunc(h.cfg.Defs, func(d NodeDef) bool { return d.ID == id })
	if i < 0 {
		return
	}
	h.startGrace()
	switch ag := h.agent(id); {
	case ag == nil:
	case ag.Departed():
		ag.Stop()
	default:
		return
	}
	h.powerOn(i)
}

// rejoin joins a freshly booted agent. A join that finds no leader is
// tried again one heartbeat interval later, as a supervisor restarts a
// daemon that exited, for as long as the agent is the node's.
func (h *chaosHarness) rejoin(ag *agent.Agent) {
	if join(ag) == nil {
		return
	}
	h.Clock.AfterFunc(chaosHeartbeat, func() {
		if h.agent(ag.MachineID()) == ag {
			h.rejoin(ag)
		}
	})
}

// PartitionStart cuts the control plane to the nodes.
func (h *chaosHarness) PartitionStart(ids []string) { h.setWindow(chaos.KindPartition, true, ids...) }

// PartitionHeal restores the control plane; reconciliation runs on the
// next heartbeats.
func (h *chaosHarness) PartitionHeal(ids []string) {
	h.setWindow(chaos.KindPartition, false, ids...)
	h.startGrace()
}

// SetWALFault switches the injected disk behaviour under the log.
func (h *chaosHarness) SetWALFault(mode chaos.WALFaultMode) {
	if h.fs == nil {
		return
	}
	h.fs.SetMode(mode)
}

// SetClockSkew steps one node's wall clock to the given offset from
// true time (zero steps it back). Only the node's own components see
// the skewed time; the coordinator keeps its own clock.
func (h *chaosHarness) SetClockSkew(id string, offset time.Duration) {
	sk, ok := h.skewed[id]
	if !ok {
		return
	}
	h.mu.Lock()
	if offset == 0 {
		delete(h.skews, id)
	} else {
		h.skews[id] = offset
	}
	h.mu.Unlock()
	sk.SetOffset(offset)
}

// SetDupDelivery toggles the duplicate-delivery window.
func (h *chaosHarness) SetDupDelivery(enabled bool) {
	h.mu.Lock()
	h.dupOn = enabled
	h.mu.Unlock()
}

// DataPartitionStart cuts both planes to the nodes: heartbeats and
// launches (control) and checkpoint transfers (data).
func (h *chaosHarness) DataPartitionStart(ids []string) {
	h.setWindow(chaos.KindDataPartition, true, ids...)
}

// DataPartitionHeal restores both planes; reconciliation and checkpoint
// pushes resume on the next heartbeat/tick.
func (h *chaosHarness) DataPartitionHeal(ids []string) {
	h.setWindow(chaos.KindDataPartition, false, ids...)
	h.startGrace()
}

// SetCheckpointFault switches the injected damage under the checkpoint
// store's backing blobs.
func (h *chaosHarness) SetCheckpointFault(mode chaos.CkptFaultMode) {
	h.blob.SetMode(mode)
}

// GrayDegradeStart opens a gray-degradation window: the node's health
// source starts emitting recoverable-XID and thermal events, which
// ride its next heartbeats to the coordinator. Nothing fails outright
// — the node keeps beating and its jobs keep running; only the health
// fold should push it out of service.
func (h *chaosHarness) GrayDegradeStart(id string) {
	if h.healthSrcs[id] == nil {
		return
	}
	if !h.inWindow(chaos.KindGrayDegrade, id) {
		h.setWindow(chaos.KindGrayDegrade, true, id)
		h.pumpGray(id, 0)
	}
}

// pumpGray injects one event batch and re-arms itself every heartbeat
// interval while the window stays open. The mix is deterministic in
// the tick counter: a critical thermal event each beat, plus a
// recoverable XID every third — enough to fold a node below the
// unhealthy threshold within a few beats.
func (h *chaosHarness) pumpGray(id string, tick int) {
	if !h.inWindow(chaos.KindGrayDegrade, id) {
		return
	}
	now := h.Clock.Now()
	events := []gpu.HealthEvent{{
		Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical,
		DeviceID: "GPU-0", Value: 96, At: now,
		Message: "chaos: injected thermal throttle",
	}}
	if tick%3 == 0 {
		events = append(events, gpu.HealthEvent{
			Kind: gpu.HealthXIDRecoverable, Severity: gpu.SeverityWarn,
			DeviceID: "GPU-0", XID: 31, At: now,
			Message: "chaos: injected recoverable xid",
		})
	}
	h.healthSrcs[id].Inject(events...)
	h.Clock.AfterFunc(chaosHeartbeat, func() { h.pumpGray(id, tick+1) })
}

// GrayDegradeHeal closes the window; the pump stops re-arming and the
// coordinator's decay sweep folds the node back toward healthy.
func (h *chaosHarness) GrayDegradeHeal(id string) { h.setWindow(chaos.KindGrayDegrade, false, id) }

// PartialLossStart opens a partial heartbeat-loss window: roughly
// every second beat from the node is dropped in flight. The path is
// degraded, not dead — the node must neither be declared lost nor
// double-ingest the health events its surviving beats carry.
func (h *chaosHarness) PartialLossStart(id string) { h.setWindow(chaos.KindPartialLoss, true, id) }

// PartialLossHeal restores reliable delivery. The heal grants the same
// reconciliation grace a partition heal does: inside the window the
// coordinator may have declared the node lost and re-placed its jobs,
// and the orphan-killing beat exchange needs reliable delivery to land.
func (h *chaosHarness) PartialLossHeal(id string) {
	h.setWindow(chaos.KindPartialLoss, false, id)
	h.startGrace()
}

// SetCheckpointReadRot toggles silent damage on the checkpoint store's
// read path; stored bytes stay intact.
func (h *chaosHarness) SetCheckpointReadRot(enabled bool) {
	h.blob.SetReadRot(enabled)
}

// CrashCoordinator kills the coordinator process — in-memory state,
// agent handles and pending timers die — and boots a successor from
// snapshot + WAL, checking that the recovered image matches the
// pre-crash store. If a disk-fault window left unlogged mutations, the
// disk is considered healed by the reboot and a checkpoint captures
// the in-memory truth first (the contract: fsync-error windows lose
// nothing once a snapshot succeeds).
func (h *chaosHarness) CrashCoordinator() []invariant.Violation {
	if h.cfg.Replicated {
		// In replicated mode a coordinator crash IS a leader kill: the
		// standby takes over instead of the same instance rebooting.
		return h.KillLeader()
	}
	old := h.currentServing()
	mgr := old.WAL()
	if mgr == nil {
		return nil // no WAL: a restart would legitimately lose everything
	}

	weakEquivalence := false
	if mgr.Err() != nil {
		h.fs.SetMode(chaos.WALHealthy)
		if err := mgr.Checkpoint(); err != nil {
			weakEquivalence = true
		}
	}
	before := old.Store().ExportState()
	_ = old.Kill()

	rep, err := h.openReplica(old.addr, old.dir, "")
	if err != nil {
		// The run is failing (the violation below ends the scenario in
		// red); the killed replica stays installed, its log closed, so
		// later sim-clock checkpoints find nothing to touch.
		return []invariant.Violation{{Rule: "recovery-failed", Detail: err.Error()}}
	}
	// Opened but not started: the recovered image is compared before
	// anything re-arms.
	var vs []invariant.Violation
	if !weakEquivalence {
		vs = invariant.CheckEquivalence(before, rep.Store().ExportState())
	}
	h.mu.Lock()
	h.recoveries++
	h.mu.Unlock()
	h.install(rep)
	rep.Start()
	return vs
}

// install makes rep, open (or promoted) but not yet recovered, the
// replica the harness drives and audits, re-attaching the stream audits
// at this quiescent point. Agents re-join rep on their own next beats.
func (h *chaosHarness) install(rep *replica) {
	h.mu.Lock()
	h.serving = rep
	h.mu.Unlock()
	h.startGrace()
	h.audits.attach(rep.Store())
}

// --- replicated coordinator ---

// KillLeader kills the serving leader outright — process gone, address
// down, log closed, lease left to expire. The standby's leadership loop
// wins the lease once the grant plus the arbiter's skew-tolerance grace
// has passed, and promoted takes over from there.
func (h *chaosHarness) KillLeader() []invariant.Violation {
	if !h.cfg.Replicated {
		return nil
	}
	if rep := h.settledLeader(); rep != nil {
		h.Hosts.Serve(rep.addr, nil)
		_ = rep.Kill()
	}
	return nil
}

// settledLeader returns the serving leader, or nil while a split-brain
// window is open or the leader has lapsed: there is no settled leader to
// fault then, and the schedule moves on.
func (h *chaosHarness) settledLeader() *replica {
	h.mu.Lock()
	rep, busy := h.serving, h.splitOpen
	h.mu.Unlock()
	if busy || !rep.Coordinator().Leading() {
		return nil
	}
	return rep
}

// promoted is every replicated replica's OnPromote. The grant is the
// linearization point: the arbiter's grace guarantees the predecessor
// self-fenced before it, so its store is final and every mutation it
// acked must be here (the zero-lost-acked audit). A fresh standby then
// bootstraps from rep's log at the predecessor's address.
func (h *chaosHarness) promoted(rep *replica, epoch uint64, err error) {
	if err != nil {
		h.flag(invariant.Violation{Rule: "failover-failed", Detail: fmt.Sprintf("promotion: %v", err)})
		return
	}
	h.leaderLog.RecordTerm(epoch, rep.id)
	prev, standbyAddr := h.currentServing(), "coord-b"
	if prev != nil {
		h.flag(invariant.CheckNoLostAcked(prev.Store().ExportState(), rep.Store().ExportState())...)
		standbyAddr = prev.addr
	}
	var next *replica
	dir, err := h.tempDir()
	if err == nil {
		next, err = h.openReplica(standbyAddr, dir, rep.dir)
	}
	if err != nil {
		h.flag(invariant.Violation{Rule: "failover-failed", Detail: fmt.Sprintf("next standby bootstrap: %v", err)})
	}
	h.mu.Lock()
	h.standby = next
	if prev != nil {
		h.failovers++
	}
	h.mu.Unlock()
	h.install(rep)
	if next != nil {
		next.Start()
	}
}

// SplitBrainStart isolates the serving leader from the lease arbiter
// and steps its local clock 90 s behind true time — within the
// arbiter's 2 min skew tolerance — while the standby's leadership loop
// keeps trying the lease. The zombie keeps serving whatever traffic
// reaches it; the protocol must guarantee it observes its own expiry
// (and self-fences) before the rival can win the lease.
func (h *chaosHarness) SplitBrainStart() {
	if !h.cfg.Replicated {
		return
	}
	rep := h.settledLeader()
	if rep == nil {
		return
	}
	h.mu.Lock()
	h.splitOpen = true
	h.zombie = rep
	h.zombieEpoch = rep.Coordinator().Epoch()
	h.mu.Unlock()
	rep.cut.cut.Store(true)
	rep.skew.SetOffset(-90 * time.Second)
}

// SplitBrainHeal reconnects the zombie's arbiter link and clock. If the
// zombie never lapsed (a short window: its cached grant stayed live and
// the next renewal extends it), every rival attempt was refused and the
// epoch never changed — the protocol holding, not a violation. If it
// lapsed, the heal probes the fence from both sides before disposing of
// the zombie: the deposed leader must reject new work, and an agent
// that has observed the successor's epoch must reject commands stamped
// with the zombie's.
func (h *chaosHarness) SplitBrainHeal() []invariant.Violation {
	if !h.cfg.Replicated {
		return nil
	}
	h.mu.Lock()
	if !h.splitOpen {
		h.mu.Unlock()
		return nil
	}
	z := h.zombie
	zEpoch := h.zombieEpoch
	h.mu.Unlock()

	z.skew.SetOffset(0)
	z.cut.cut.Store(false)
	cur := h.lease.Epoch()

	if z.Coordinator().Leading() && cur == zEpoch {
		// Survived: no successor exists and the grant is still live, so
		// the zombie resumes as the rightful leader and the standby —
		// whose every acquisition attempt was refused — goes on tailing
		// it.
		h.mu.Lock()
		h.splitOpen = false
		h.zombie, h.zombieEpoch = nil, 0
		h.mu.Unlock()
		return nil
	}

	// The zombie lapsed and must have self-fenced. Probe the fence.
	var vs []invariant.Violation
	probe := TrainingJobSubmission("split-brain-probe", workload.SmallCNN, 10*time.Minute)
	if _, err := z.Coordinator().SubmitJob(probe); err == nil {
		vs = append(vs, invariant.Violation{
			Rule: "no-stale-write-accepted",
			Detail: fmt.Sprintf("deposed leader %s (epoch %d) accepted a job submission after isolation",
				z.id, zEpoch),
		})
	}
	if cur > zEpoch {
		// A successor was elected; agents that have observed its epoch
		// must fence the zombie's commands.
		for _, id := range h.nodeIDs {
			ag := h.agent(id)
			if ag == nil || ag.Departed() || h.silenced(id) || ag.CoordEpoch() <= zEpoch {
				continue
			}
			spec := workload.SmallCNN
			_, err := ag.Launch(api.LaunchRequest{
				Envelope: api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: zEpoch},
				JobID:    "split-brain-probe", ImageName: "pytorch/pytorch:2.3-cuda12", Kind: "batch",
				GPUMemMiB: spec.GPUMemMiB, Training: &spec,
			})
			if !errors.Is(err, agent.ErrStaleLeader) {
				vs = append(vs, invariant.Violation{
					Rule: "no-stale-write-accepted",
					Detail: fmt.Sprintf("agent %s (epoch %d) admitted a launch from deposed epoch %d: %v",
						id, ag.CoordEpoch(), zEpoch, err),
				})
			}
			break
		}
	}
	// If the standby is still waiting out the grace, the killed zombie
	// stays installed — fenced, its log closed, its address down — until
	// the successor is.
	_ = z.Kill()
	h.mu.Lock()
	h.splitOpen = false
	h.zombie, h.zombieEpoch = nil, 0
	succeeded := h.standby != nil && h.standby.addr == z.addr
	h.mu.Unlock()
	if !succeeded {
		h.Hosts.Serve(z.addr, nil)
	}
	return vs
}

// ExtraChecks audits what the database alone cannot show: idempotency
// breaches found by duplicate-delivery replays since the last audit,
// beat-delta equivalence of the coalesced heartbeat stream,
// the scheduler's cached candidate set against a fresh store scan,
// checkpoint-integrity over every live job's restore chain, and —
// outside the reconciliation grace window after a heal or restart —
// skew-bounded-liveness for nodes whose only fault is a clock offset
// plus the agent-vs-store phantom checks. The candidate-cache and
// checkpoint checks are never suppressed: they must hold at every
// quiescent point.
func (h *chaosHarness) ExtraChecks() []invariant.Violation {
	var vs []invariant.Violation
	h.mu.Lock()
	vs = append(vs, h.found...)
	h.found = nil
	h.mu.Unlock()
	if h.leaderLog != nil {
		all := h.leaderLog.Violations()
		h.mu.Lock()
		if h.leaderVsSeen < len(all) {
			vs = append(vs, all[h.leaderVsSeen:]...)
			h.leaderVsSeen = len(all)
		}
		h.mu.Unlock()
	}
	// The cache audit only applies to a leading coordinator: a fenced
	// replica schedules nothing (standalone mode always leads).
	if c := h.currentCoord(); c.Leading() {
		for _, p := range c.AuditSchedulerPool() {
			vs = append(vs, invariant.Violation{Rule: "scheduler-pool-consistent", Detail: p})
		}
	}
	store := h.currentStore()
	// The stream equivalences hold at every audit point — the recorded
	// mutation stream, folded, must land on the store's heartbeats and
	// health scores — and the unhealthy-placement exclusion is pure
	// store state: neither needs a reconciliation grace.
	vs = append(vs, h.audits.check(store)...)
	vs = append(vs, invariant.CheckNoPlacementOnUnhealthy(store)...)
	live := store.JobsInState(db.JobPending)
	live = append(live, store.JobsInState(db.JobRunning)...)
	vs = append(vs, invariant.CheckCheckpoints(h.Ckpts, live)...)
	h.mu.Lock()
	grace := h.graceUntil
	h.mu.Unlock()
	if h.Clock.Now().Before(grace) {
		return vs
	}
	vs = append(vs, invariant.CheckSkewLiveness(store, h.skewedHealthyNodes())...)
	vs = append(vs, h.checkDegradedDrained(store)...)
	for _, id := range h.nodeIDs {
		ag := h.agent(id)
		// Lossy nodes are skipped like silenced ones: mid-window the
		// coordinator may legitimately have re-placed their jobs while
		// the orphan-killing reconciliation beats are being dropped.
		if ag == nil || ag.Departed() || h.silenced(id) || h.inWindow(chaos.KindPartialLoss, id) {
			continue
		}
		for _, jobID := range ag.Status().RunningJobs {
			rec, err := store.GetJob(jobID)
			if err != nil {
				vs = append(vs, invariant.Violation{
					Rule:   "agent-runs-unknown-job",
					Detail: fmt.Sprintf("node %s executes %s, unknown to the platform", id, jobID),
				})
				continue
			}
			if rec.NodeID != id || rec.State != db.JobRunning {
				vs = append(vs, invariant.Violation{
					Rule: "agent-runs-unassigned-job",
					Detail: fmt.Sprintf("node %s executes %s, which the platform has %s on %q",
						id, jobID, rec.State, rec.NodeID),
				})
			}
		}
	}
	return vs
}

// checkDegradedDrained maintains the unhealthy-since ledger and runs
// the degraded-node-drained audit. The ledger stamps a node at the
// first (post-grace-window) audit that saw it below the threshold, so
// the drain grace runs from observed crossing time, not from the last
// health fold — folds keep advancing while a gray window stays open.
func (h *chaosHarness) checkDegradedDrained(store db.Store) []invariant.Violation {
	now := h.Clock.Now()
	nodes := store.ListNodes()
	h.mu.Lock()
	for i := range nodes {
		n := &nodes[i]
		if n.HealthScore() < monitor.UnhealthyBelow {
			if _, ok := h.unhealthySince[n.ID]; !ok {
				h.unhealthySince[n.ID] = now
			}
		} else {
			delete(h.unhealthySince, n.ID)
		}
	}
	since := make(map[string]time.Time, len(h.unhealthySince))
	for id, t := range h.unhealthySince {
		since[id] = t
	}
	h.mu.Unlock()
	// Ten beat intervals: detection takes a beat, the checkpoint, plan
	// and relaunch are immediate, and one sweep-cadence retry fits
	// comfortably inside the rest.
	return invariant.CheckDegradedDrained(store, since, now, 10*chaosHeartbeat)
}

// skewedHealthyNodes lists the nodes whose *only* current fault is an
// injected clock offset: skewed, but reachable and still a member.
// Exactly these must stay in service (skew-bounded-liveness).
func (h *chaosHarness) skewedHealthyNodes() []string {
	h.mu.Lock()
	ids := make([]string, 0, len(h.skews))
	for id := range h.skews {
		if h.silencedLocked(id) {
			continue
		}
		ids = append(ids, id)
	}
	h.mu.Unlock()
	out := ids[:0]
	for _, id := range ids {
		if ag := h.agent(id); ag != nil && !ag.Departed() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// --- Canned scenarios (the CI gates: make verify-chaos, verify-failover,
// verify-gray) ---

// chaosScaleDefs builds n single-3090 workstations.
func chaosScaleDefs(n int) []NodeDef {
	defs := make([]NodeDef, 0, n)
	for i := 0; i < n; i++ {
		defs = append(defs, NodeDef{
			ID:   fmt.Sprintf("node-%04d", i),
			GPUs: []gpu.Spec{gpu.RTX3090},
			Lab:  fmt.Sprintf("lab-%02d", i%20),
		})
	}
	return defs
}

// ChaosSchedule is one canned scenario: a name and the configuration
// RunChaos executes under a seed.
type ChaosSchedule struct {
	Name   string
	Config ChaosConfig
}

// RunChaosSchedule runs the canned schedule of that name under seed.
func RunChaosSchedule(name string, seed int64) (ChaosResult, error) {
	for _, sc := range ChaosSchedules {
		if sc.Name == name {
			sc.Config.Seed = seed
			return RunChaos(sc.Config)
		}
	}
	return ChaosResult{}, fmt.Errorf("sim: no chaos schedule named %q", name)
}

// ChaosSchedules is the one list of canned schedules: the TestChaos*
// lanes look their schedule up here and campus-sim -chaos runs them
// all.
var ChaosSchedules = []ChaosSchedule{
	// The 400-node churn schedule: provider crashes and announced
	// departures at the paper's interruption rates, at the scale the
	// ROADMAP targets. No WAL — the subject is the store, scheduler
	// and migration machinery under mass churn.
	{Name: "churn@400", Config: ChaosConfig{
		Defs: chaosScaleDefs(400),
		Spec: chaos.Spec{
			Duration:           90 * time.Minute,
			ChurnPerNodePerDay: 6,
			MeanOutage:         20 * time.Minute,
		},
		Jobs:       100,
		AuditEvery: 10 * time.Minute,
		Drain:      time.Hour,
	}},
	// The paper-campus schedule combining control-plane partitions (long
	// enough to trigger emergency migration and split-brain
	// reconciliation) with coordinator kill/restart mid-migration, on a
	// WAL-backed store.
	{Name: "partition+coord-crash", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           8 * time.Hour,
			ChurnPerNodePerDay: 3,
			PartitionsPerDay:   9,
			MeanPartition:      12 * time.Minute,
			MaxPartitionNodes:  3,
			CoordCrashes:       2,
		},
		Jobs:        16,
		EnableWAL:   true,
		WithNetwork: true,
	}},
	// The disk-fault schedule: fsync-error and short-write windows under
	// live traffic, plus coordinator crashes that force recovery from the
	// damaged-but-quarantined log.
	{Name: "wal-disk-faults", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			WALFaultsPerDay:    16,
			MeanWALFault:       10 * time.Minute,
			CoordCrashes:       2,
		},
		Jobs:        16,
		EnableWAL:   true,
		WithNetwork: true,
	}},
	// The clock-skew + duplicate-delivery schedule on the paper campus:
	// per-node wall clocks step by minutes in either direction while
	// heartbeats, terminal job updates and launch requests are replayed —
	// under churn, so the replays race real displacements. The subjects
	// are the coordinator's idempotent ingress guards and the agent's
	// skew-hardened progress accounting.
	{Name: "skew+dup-delivery", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			ClockSkewsPerDay:   16,
			MaxSkew:            3 * time.Minute,
			MeanSkewWindow:     25 * time.Minute,
			DupWindowsPerDay:   18,
			MeanDupWindow:      40 * time.Minute,
		},
		Jobs: 16,
	}},
	// The data-plane schedule: partitions that sever checkpoint transfers
	// along with the control path, checkpoint-store corruption windows
	// (silent bit flips and truncation under the CRC frames), churn to
	// force migrations through the damage, and a coordinator crash on a
	// WAL-backed store. The subjects are checkpoint corruption detection
	// with generation fallback and migration retry once a severed transfer
	// path heals.
	{Name: "data-plane+ckpt-corrupt", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:             6 * time.Hour,
			ChurnPerNodePerDay:   2,
			DataPartitionsPerDay: 8,
			MeanPartition:        12 * time.Minute,
			MaxPartitionNodes:    3,
			CkptFaultsPerDay:     12,
			MeanCkptFault:        12 * time.Minute,
			CoordCrashes:         1,
		},
		Jobs:        16,
		EnableWAL:   true,
		WithNetwork: true,
	}},
	// The gray-failure schedule: nodes degrade without dying — recoverable
	// XIDs and thermal throttling stream in on heartbeats while the node
	// keeps beating and its jobs keep running — under churn and a
	// coordinator crash, on a WAL-backed store. The subjects are the
	// health-fold pipeline (health-score-consistent, including across
	// crash recovery), the scheduler's unhealthy exclusion, and predictive
	// checkpoint-then-migrate actually draining degraded nodes
	// (degraded-node-drained).
	{Name: "gray-degrade", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			GrayDegradesPerDay: 24,
			MeanGrayDegrade:    25 * time.Minute,
			CoordCrashes:       1,
		},
		Jobs:        16,
		EnableWAL:   true,
		WithNetwork: true,
	}},
	// The lossy-path schedule: partial heartbeat loss (every other beat
	// dropped) overlapping gray-degradation windows, so health events
	// arrive late, batched onto surviving beats. The subjects are the
	// bounded health carry (events accumulate and ride the next delivered
	// beat, none double-ingested), loss-tolerant failure detection — a
	// half-dead path must not get the node declared lost — and, via the
	// replicated pair with a leader kill, the health score surviving
	// standby promotion intact.
	{Name: "partial-loss", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			GrayDegradesPerDay: 6,
			MeanGrayDegrade:    20 * time.Minute,
			PartialLossPerDay:  12,
			MeanPartialLoss:    15 * time.Minute,
			LeaderKills:        1,
		},
		Jobs:       16,
		Replicated: true,
	}},
	// The silent-read-rot schedule: checkpoint blobs are stored intact but
	// every other read returns a damaged copy during rot windows, while
	// gray degradation forces predictive migrations straight through the
	// damage. The subjects are the checkpoint store's read-side CRC
	// detection and generation fallback under a restore path that cannot
	// trust what it fetches.
	{Name: "ckpt-read-rot", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			GrayDegradesPerDay: 6,
			MeanGrayDegrade:    20 * time.Minute,
			CkptReadRotPerDay:  10,
			MeanCkptReadRot:    15 * time.Minute,
		},
		Jobs:        16,
		EnableWAL:   true,
		WithNetwork: true,
	}},
	// The leader-kill schedule on the replicated pair: three unannounced
	// leader kills under churn, each forcing a lease-grace wait, a standby
	// promotion with the zero-lost-acked audit, and a fleet-wide redirect
	// — plus the single-leader-per-epoch and stale-write audits running
	// throughout.
	{Name: "leader-failover", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			LeaderKills:        3,
		},
		Jobs:        16,
		Replicated:  true,
		WithNetwork: true,
	}},
	// The split-brain schedule: the serving leader is isolated from the
	// lease arbiter with its clock stepped behind true time while a rival
	// promotion races it. Short windows must end with the original leader
	// resuming (no epoch change); long ones must end with it self-fenced
	// before the rival's grant, probed at heal time from both the
	// coordinator and the agent side.
	{Name: "split-brain", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			SplitBrains:        3,
			MeanSplitBrain:     4 * time.Minute,
		},
		Jobs:        16,
		Replicated:  true,
		WithNetwork: true,
	}},
}
