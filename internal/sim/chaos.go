package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/chaos"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/monitor"
	"gpunion/internal/netsim"
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
	// HeartbeatInterval between agent reports (default 1 min).
	HeartbeatInterval time.Duration
	// ProgressTick is the agent work-advance granularity (default 1 min).
	ProgressTick time.Duration
	// EnableWAL attaches a write-ahead log (required for WAL-fault and
	// coordinator-crash injections).
	EnableWAL bool
	// AuditEvery is the periodic invariant-audit cadence (default 5 min).
	AuditEvery time.Duration
	// Drain runs the platform past the last fault so in-flight
	// migrations settle before the final audit (default 2 h).
	Drain time.Duration
	// WithNetwork attaches the LAN model; it is also enabled
	// automatically when the spec sets a latency-spike rate.
	WithNetwork bool
	// Replicated runs the coordinator as a replicated pair: a leader
	// holding a lease from an in-process arbiter plus a warm standby
	// applying the leader's log via WAL shipping. Implies EnableWAL.
	// Required for the LeaderKills / SplitBrains fault families.
	Replicated bool
	// Aggregators interposes a rack aggregation tier of this many
	// relays (internal/aggregator): agents are assigned round-robin and
	// their beats route aggregator-first with direct fallback, while
	// the aggregation-equivalence audit watches both ends. Required for
	// the AggCrashes / AggPartitions fault families. Zero disables the
	// tier, leaving the classic direct heartbeat path untouched.
	Aggregators int
}

// ChaosResult is what one chaos run observed.
type ChaosResult struct {
	// Schedule is the injected fault sequence (replayable evidence).
	Schedule chaos.Schedule
	// Report carries per-fault observations and every invariant
	// violation, including the final post-drain audit.
	Report *chaos.Report
	// Violations flattens Report.Violations plus end-of-run liveness
	// checks (stuck migrations).
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
	// AggFoldedBeats / AggForwards count, across the aggregation tier,
	// the no-op beats acked locally (each one a coordinator request
	// saved) and the upstream batch requests actually sent.
	AggFoldedBeats uint64
	AggForwards    uint64
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
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Minute
	}
	if cfg.ProgressTick <= 0 {
		cfg.ProgressTick = time.Minute
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
	if cfg.Aggregators > 0 && len(cfg.Spec.Aggregators) == 0 {
		for i := 0; i < cfg.Aggregators; i++ {
			cfg.Spec.Aggregators = append(cfg.Spec.Aggregators, aggName(i))
		}
	}

	h, err := newChaosHarness(cfg)
	if err != nil {
		return res, err
	}
	defer h.stop()

	sched := chaos.Generate(cfg.Spec, cfg.Seed)
	h.startTraffic(cfg.Seed + 1)
	eng := chaos.NewEngine(h.clock, h)
	eng.SetRecorder(h.trace)
	rep := eng.Execute(sched, cfg.AuditEvery, cfg.Drain)

	res.Schedule = sched
	res.Report = rep
	res.Violations = append(res.Violations, rep.Violations...)
	// End-of-run liveness: after the drain, no job may be wedged in
	// Migrating — a failed transfer must have requeued it.
	store := h.currentStore()
	for _, j := range store.JobsInState(db.JobMigrating) {
		res.Violations = append(res.Violations, invariant.Violation{
			Rule:   "stuck-migrating",
			Detail: fmt.Sprintf("job %s still migrating %v after the last fault", j.ID, cfg.Drain),
		})
	}
	res.SubmittedJobs = h.submitted
	res.CompletedJobs = store.CountJobsInState(db.JobCompleted)
	res.Recoveries = h.recoveries
	res.Failovers = h.failovers
	if h.fs != nil {
		res.WALFaultsInjected = h.fs.Injected()
	}
	res.CkptFaultsInjected = h.blob.Injected()
	res.CkptReadFaultsInjected = h.blob.ReadInjected()
	res.CkptCorruptionsDetected = h.ckpts.CorruptionsDetected()
	h.mu.Lock()
	res.DupReplaysDelivered = h.dupReplays
	h.dupReplays = nil
	h.mu.Unlock()
	res.DurabilityLost = h.sawDurabilityLoss
	for _, id := range h.aggIDs {
		folded, _, forwards, _ := h.aggs[id].Stats()
		res.AggFoldedBeats += folded
		res.AggForwards += forwards
	}
	res.Trace = h.trace.Events()
	res.TraceDropped = h.trace.Dropped()
	if text, err := h.currentCoord().MetricsSnapshot(); err == nil {
		res.MetricsText = text
	}
	return res, nil
}

// chaosHarness implements chaos.Platform over the real components.
// Each agent reaches the coordinator through its chaosLink, which
// routes every message to whichever coordinator currently serves.
type chaosHarness struct {
	cfg   ChaosConfig
	clock *simclock.Sim
	bus   *eventbus.Bus
	// trace is the run's flight recorder: attached to the shared bus
	// once, handed to every coordinator incarnation via coordCfg.Trace,
	// and fed fault/violation annotations by the chaos engine. One
	// recorder spans crashes and failovers, so the exported timeline is
	// continuous across leadership changes.
	trace    *obs.Recorder
	blob     *chaos.FaultBlobStore
	ckpts    *checkpoint.Store
	net      *netsim.Network
	fs       *chaos.FaultFS
	coordCfg core.Config
	nodeIDs  []string
	// skewed holds each agent's adjustable clock (the skew seam).
	skewed map[string]*simclock.Skewed

	mu sync.Mutex
	// serving is the replica traffic is routed to: the one coordinator
	// of a standalone run, the leader of a replicated pair. After a
	// leader kill it stays the dead leader — stopped, so every request
	// is fenced — until finishTakeover installs the successor.
	serving     *replica
	agents      map[string]*agent.Agent
	crashed     map[string]bool
	partitioned map[string]bool
	// dataPartitioned nodes have lost the data plane too: checkpoint
	// transfers fail in both directions, on top of the control cut.
	dataPartitioned map[string]bool
	// skews mirrors the currently injected clock offsets, so audits
	// know which nodes' only fault is a bounded skew.
	skews     map[string]time.Duration
	origLinks map[string]netsim.NodeLink
	// dupOn marks an open duplicate-delivery window; dupCounter varies
	// the replay count; dupReplays tallies replays by message kind;
	// dupViolations accumulates idempotency breaches found between
	// audits.
	dupOn         bool
	dupCounter    int
	dupReplays    map[string]int
	dupViolations []invariant.Violation
	// audits are the stream recorders over the serving store,
	// re-attached whenever a successor store is installed.
	audits streamAudits
	// healthSrcs holds each agent's injectable health source (the
	// gray-degrade seam); grayOn marks nodes with an open gray window
	// (the pump re-injects events every heartbeat interval); lossOn
	// marks nodes whose heartbeats drop probabilistically (partial
	// loss); lossRng drives those drops, consumed only inside loss
	// windows so other schedules' determinism is untouched.
	healthSrcs map[string]*gpu.FakeHealthSource
	grayOn     map[string]bool
	lossOn     map[string]bool
	lossRng    *rand.Rand
	// aggs are the rack aggregators (cfg.Aggregators > 0); aggIDs is
	// their sorted identity list and aggCut the injected upstream
	// partitions.
	aggs   map[string]*aggregator.Aggregator
	aggIDs []string
	aggCut map[string]bool
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
	// replViolations collects findings made while a coordinator is
	// being replaced (lost-acked checks, fence probes, install's
	// health-laundering audit) for the next ExtraChecks drain.
	replViolations []invariant.Violation
	replicaSeq     int
	// standby is the warm standby: a fenced replica from birth, tailing
	// the serving leader's log (pumped from the leader's OnDurable hook)
	// until a takeover promotes it.
	standby *replica
	// splitOpen marks an open split-brain window; zombie is the isolated
	// ex-leader (at zombieEpoch) so heal can probe and dispose of it.
	splitOpen   bool
	zombie      *replica
	zombieEpoch uint64
	// pendingTakeover is the standby still waiting out the lease grace.
	pendingTakeover *takeover
	// tmpDirs are the WAL directories the harness created, removed on
	// stop.
	tmpDirs   []string
	failovers int
}

// replica is one core.Replica of the run plus, in replicated mode, its
// identity and two fault seams: the cuttable link to the arbiter and
// the adjustable clock (both nil for the standalone coordinator).
type replica struct {
	*core.Replica
	dir  string
	id   string
	cut  *chaosLeaseClient
	skew *simclock.Skewed
}

// takeover is a standby promotion in flight: the standby retries
// TryLead until the dead (or fenced) leader's lease grace runs out,
// then finishTakeover promotes and installs it. It is live while it is
// the harness's pendingTakeover; clearing that aborts it.
type takeover struct {
	rep       *replica
	deadStore db.Store
}

// chaosLeaseClient wraps the arbiter with a cuttable link: a cut client
// models the leader partitioned from the coordination service — every
// call fails at the transport, and the replica must live off its cached
// grant until that lapses.
type chaosLeaseClient struct {
	mu    sync.Mutex
	inner core.LeaseClient
	cut   bool
}

var errLeaseUnreachable = fmt.Errorf("chaos: lease arbiter unreachable")

func (c *chaosLeaseClient) Cut(cut bool) {
	c.mu.Lock()
	c.cut = cut
	c.mu.Unlock()
}

func (c *chaosLeaseClient) isCut() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut
}

func (c *chaosLeaseClient) Acquire(holder string) (uint64, time.Time, error) {
	if c.isCut() {
		return 0, time.Time{}, errLeaseUnreachable
	}
	return c.inner.Acquire(holder)
}

func (c *chaosLeaseClient) Renew(holder string, epoch uint64) (time.Time, error) {
	if c.isCut() {
		return time.Time{}, errLeaseUnreachable
	}
	return c.inner.Renew(holder, epoch)
}

func (c *chaosLeaseClient) Leader() (string, uint64) {
	if c.isCut() {
		return "", 0
	}
	return c.inner.Leader()
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
	h := &chaosHarness{
		cfg:             cfg,
		clock:           simclock.NewSim(Epoch),
		bus:             eventbus.New(4096),
		blob:            blob,
		ckpts:           checkpoint.NewStore(blob),
		skewed:          make(map[string]*simclock.Skewed),
		agents:          make(map[string]*agent.Agent),
		crashed:         make(map[string]bool),
		partitioned:     make(map[string]bool),
		dataPartitioned: make(map[string]bool),
		skews:           make(map[string]time.Duration),
		origLinks:       make(map[string]netsim.NodeLink),
		healthSrcs:      make(map[string]*gpu.FakeHealthSource),
		aggs:            make(map[string]*aggregator.Aggregator),
		aggCut:          make(map[string]bool),
		grayOn:          make(map[string]bool),
		lossOn:          make(map[string]bool),
		lossRng:         rand.New(rand.NewSource(cfg.Seed + 2)),
		unhealthySince:  make(map[string]time.Time),
		audits:          streamAudits{withAgg: cfg.Aggregators > 0},
	}
	for _, d := range cfg.Defs {
		h.nodeIDs = append(h.nodeIDs, d.ID)
	}
	sort.Strings(h.nodeIDs)
	// A deep ring: chaos runs are the flight recorder's primary
	// customer, and fault localization needs the whole run retained.
	h.trace = obs.NewRecorder(h.clock, 1<<16)
	h.trace.Attach(h.bus)

	if cfg.WithNetwork || cfg.Spec.LatencySpikesPerDay > 0 {
		h.net = netsim.New(10 * netsim.Gbps)
		h.net.AddNode(netsim.NodeLink{Name: "coordinator", Access: 10 * netsim.Gbps, Latency: 150 * time.Microsecond})
		for _, d := range cfg.Defs {
			link := netsim.NodeLink{Name: d.ID, Access: netsim.Gbps, Latency: 250 * time.Microsecond}
			h.net.AddNode(link)
			h.origLinks[d.ID] = link
		}
	}
	storageNode := ""
	if h.net != nil {
		storageNode = "coordinator"
	}
	h.coordCfg = core.Config{
		HeartbeatInterval: cfg.HeartbeatInterval,
		BatchSize:         8,
		AuthSecret:        chaosAuthSecret,
		Net:               h.net,
		StorageNode:       storageNode,
		Trace:             h.trace,
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
			if h.clock.Now().Before(Epoch.Add(cfg.Spec.Duration + cfg.Drain)) {
				h.clock.AfterFunc(time.Hour, checkpointLoop)
			}
		}
		h.clock.AfterFunc(time.Hour, checkpointLoop)
	}
	if cfg.Replicated {
		// 30 s grants against a 2 min re-grant grace: a dead leader's
		// slot stays fenced for at most 2.5 min of simulated time before
		// a standby can win it.
		h.lease = core.NewLease(core.NewMemLeaseStore(), h.clock, 30*time.Second, 2*time.Minute)
		h.leaderLog = invariant.NewLeaderLog()
	}
	rep, err := h.openReplica(dir, "")
	if err != nil {
		return nil, err
	}
	h.serving = rep
	if cfg.Replicated {
		if !rep.Coordinator().TryLead() {
			return nil, fmt.Errorf("chaos: initial replica failed to take the free lease")
		}
		h.leaderLog.RecordTerm(rep.Coordinator().Epoch(), rep.id)
		if h.standby, err = h.openStandby(rep); err != nil {
			return nil, err
		}
	}
	h.audits.attach(rep.Store())
	rep.Start()

	// The aggregation tier: rack relays folding their agents' no-op
	// beats, each forwarding through the upstream seam (which applies
	// the partition fault and feeds the equivalence audit). A flush
	// window of half the heartbeat interval keeps worst-case liveness
	// lag under one beat.
	for i := 0; i < cfg.Aggregators; i++ {
		id := aggName(i)
		h.aggs[id] = aggregator.New(aggregator.Config{
			ID:            id,
			FlushInterval: cfg.HeartbeatInterval / 2,
		}, h.clock, aggUpstream{h: h, id: id})
		h.aggIDs = append(h.aggIDs, id)
	}

	for i, d := range cfg.Defs {
		rt := container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(d.GPUs...), 0, 0)
		// Each agent runs on its own skewable clock (the clock-skew
		// seam) and writes checkpoints through a per-node gate that a
		// data-plane partition severs.
		skewed := simclock.NewSkewed(h.clock)
		h.skewed[d.ID] = skewed
		src := gpu.NewFakeHealthSource()
		h.healthSrcs[d.ID] = src
		acfg := agent.Config{
			MachineID: d.ID, Kernel: "5.15", ProgressTick: cfg.ProgressTick,
			Health: src,
		}
		if len(h.aggIDs) > 0 {
			// Fleet telemetry cadence: samples every 4th beat, liveness
			// every beat. The off-cadence beats of idle nodes carry no
			// payload, so the rack relay can fold them.
			acfg.TelemetryEvery = 4
		}
		ag := agent.New(acfg, skewed, rt, agentCkptWriter{h: h, id: d.ID}, h.bus)
		ag.SetEndpoints([]agent.Endpoint{{Link: chaosLink{h: h, ag: ag}}})
		if len(h.aggIDs) > 0 {
			// Round-robin rack assignment: the agent beats through its
			// relay first and falls back direct when it is unavailable.
			aggID := h.aggIDs[i%len(h.aggIDs)]
			ag.SetAggregator(aggID, aggSender{h: h, id: aggID})
		}
		h.agents[d.ID] = ag
		if err := joinLocal(ag); err != nil {
			return nil, err
		}
		h.beat(ag)
	}
	return h, nil
}

// aggName is the rack aggregator naming scheme shared by the harness
// and the schedule spec.
func aggName(i int) string { return fmt.Sprintf("agg-%02d", i) }

func (h *chaosHarness) stop() {
	h.mu.Lock()
	h.pendingTakeover = nil
	reps := []*replica{h.serving, h.standby, h.zombie}
	h.mu.Unlock()
	for _, r := range reps {
		if r != nil {
			_ = r.Kill()
		}
	}
	for _, id := range h.nodeIDs {
		h.agents[id].Stop()
	}
	for _, id := range h.aggIDs {
		h.aggs[id].Stop()
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
// verify beat-delta equivalence at every audit point, health does the
// same for the health-fold records, and — with aggregators — agg folds
// both ends of the tier (agent-side acknowledgements, upstream
// forwards, committed health folds) for aggregation equivalence.
type streamAudits struct {
	withAgg bool

	mu     sync.Mutex
	beat   *invariant.BeatAudit
	health *invariant.HealthAudit
	agg    *invariant.AggAudit
	cancel []func()
}

// attach (re)binds the recorders to the store passed in. Called at
// quiescent installation points — setup, coordinator recovery, takeover
// completion — where no writes race the base snapshots. The aggregation
// audit is created once and survives coordinator recoveries: its
// acknowledged-beat ledger spans store lifetimes, only the mutation
// subscription re-binds to the successor.
func (a *streamAudits) attach(store db.Store) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, cancel := range a.cancel {
		cancel()
	}
	var cb, ch, ca func()
	a.beat, cb = invariant.NewBeatAudit(store)
	a.health, ch = invariant.NewHealthAudit(store)
	a.cancel = []func(){cb, ch}
	if a.withAgg {
		if a.agg == nil {
			a.agg, ca = invariant.NewAggAudit(store)
		} else {
			ca = a.agg.Attach(store)
		}
		a.cancel = append(a.cancel, ca)
	}
}

// aggregation is the aggregation audit, nil without aggregators.
func (a *streamAudits) aggregation() *invariant.AggAudit {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.agg
}

// check runs every attached recorder against the store; aggLag is the
// aggregation tier's tolerance.
func (a *streamAudits) check(store db.Store, aggLag time.Duration) []invariant.Violation {
	a.mu.Lock()
	beat, health, agg := a.beat, a.health, a.agg
	a.mu.Unlock()
	if beat == nil {
		return nil
	}
	vs := append(beat.Check(store), health.Check(store)...)
	if agg != nil {
		vs = append(vs, agg.Check(store, aggLag)...)
	}
	return vs
}

// observeBeatAck reports one genuinely acknowledged beat to the
// aggregation audit: the instant both tiers stamp an ack with is the
// shared simulated clock's now, and only the events the coordinator
// would actually ingest (the per-beat cap) count toward health
// completeness.
func (h *chaosHarness) observeBeatAck(req api.HeartbeatRequest, resp api.HeartbeatResponse, err error) {
	a := h.audits.aggregation()
	if a == nil || err != nil || !resp.Acknowledged || resp.Reregister {
		return
	}
	n := len(req.HealthEvents)
	if n > api.MaxHealthEventsPerBeat {
		n = api.MaxHealthEventsPerBeat
	}
	a.ObserveAck(req.MachineID, h.clock.Now(), n)
}

func (h *chaosHarness) noteDurabilityLoss() {
	h.mu.Lock()
	h.sawDurabilityLoss = true
	h.mu.Unlock()
}

// openReplica opens one core.Replica of the run — the same assembly
// the daemon boots — logging to dir, or tailing followDir as a standby
// that logs to dir once promoted. In replicated mode it competes for
// the lease under a fresh identity, through its own cuttable lease
// client and on its own adjustable clock (the seams the split-brain
// fault pulls on). The log keeps the harness's disk-fault FS and
// durability-loss tap, and ships semi-synchronously when replicated.
func (h *chaosHarness) openReplica(dir, followDir string) (*replica, error) {
	rep := &replica{dir: dir}
	cfg := core.ReplicaConfig{
		Dir: dir, FollowDir: followDir,
		WAL: wal.Config{
			FS:            h.fs,
			OnAppendError: func(error) { h.noteDurabilityLoss() },
		},
		Coordinator: h.coordCfg,
	}
	var clock simclock.Clock = h.clock
	if h.cfg.Replicated {
		h.mu.Lock()
		h.replicaSeq++
		rep.id = fmt.Sprintf("coord-%d", h.replicaSeq)
		h.mu.Unlock()
		rep.cut = &chaosLeaseClient{inner: h.lease}
		rep.skew = simclock.NewSkewed(h.clock)
		clock = rep.skew
		cfg.Coordinator.Lease, cfg.Coordinator.ReplicaID = rep.cut, rep.id
		cfg.WAL.OnDurable = h.onLeaderDurable
	}
	var err error
	rep.Replica, err = core.OpenReplica(cfg, clock, h.ckpts, h.bus)
	return rep, err
}

// openStandby opens a warm standby of leader in a directory of its own.
func (h *chaosHarness) openStandby(leader *replica) (*replica, error) {
	dir, err := h.tempDir()
	if err != nil {
		return nil, err
	}
	return h.openReplica(dir, leader.dir)
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
		h.mu.Lock()
		h.replViolations = append(h.replViolations, invariant.Violation{
			Rule:   "replication-ship-failed",
			Detail: fmt.Sprintf("shipping acked mutations to the standby: %v", err),
		})
		h.mu.Unlock()
	}
	// Export the post-pump shipping backlog.
	lead.Coordinator().ObserveReplication(sb.Lag(lead.Store().CurrentLSN()))
}

// silenced reports whether the node's control-plane path is cut. A
// data-plane partition implies the control cut too: it models the whole
// link going dark, not just the heartbeat port.
func (h *chaosHarness) silenced(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crashed[id] || h.partitioned[id] || h.dataPartitioned[id]
}

// dataCut reports whether the node's checkpoint data plane is severed.
func (h *chaosHarness) dataCut(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dataPartitioned[id]
}

// agentCkptWriter is one node's path to the platform checkpoint store,
// with the data-plane fault model applied: a data-partitioned node
// cannot push checkpoints (or prune remotely), exactly as its transfer
// connections would fail. The agent must absorb the error — the
// workload keeps running on its last durable generation.
type agentCkptWriter struct {
	h  *chaosHarness
	id string
}

var errDataPlaneSevered = fmt.Errorf("chaos: checkpoint data plane severed")

func (w agentCkptWriter) Save(ck checkpoint.Checkpoint) error {
	if w.h.dataCut(w.id) {
		return errDataPlaneSevered
	}
	return w.h.ckpts.Save(ck)
}

func (w agentCkptWriter) Prune(jobID string) (int64, error) {
	if w.h.dataCut(w.id) {
		return 0, errDataPlaneSevered
	}
	return w.h.ckpts.Prune(jobID)
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
		if vs := chaos.VerifyIdempotent(store, label, deliver); len(vs) > 0 {
			h.mu.Lock()
			h.dupViolations = append(h.dupViolations, vs...)
			h.mu.Unlock()
		}
	}
}

// chaosLink is one agent's agent.Link: requests go to whichever
// coordinator currently serves, and the link — which sees every request
// — carries the harness's taps on that path. One fault model covers all
// four messages: a crashed or partitioned node reaches no coordinator,
// and what it sends fails as its HTTP request would.
type chaosLink struct {
	h  *chaosHarness
	ag *agent.Agent
}

// reach is the coordinator a request from this node arrives at, or
// errUnreachable while the node is silenced.
func (l chaosLink) reach() (*core.Coordinator, error) {
	if l.h.silenced(l.ag.MachineID()) {
		return nil, errUnreachable
	}
	return l.h.currentCoord(), nil
}

// Register attaches the fault-modelled transport back to the agent,
// tells the aggregation audit, and in replicated mode teaches the agent
// its endpoint set.
func (l chaosLink) Register(req api.RegisterRequest) (api.RegisterResponse, error) {
	h, id := l.h, l.ag.MachineID()
	c, err := l.reach()
	if err != nil {
		return api.RegisterResponse{}, err
	}
	resp, err := c.Register(req, chaosHandle{h: h, id: id, inner: core.LocalAgent{A: l.ag}})
	if err != nil {
		return resp, err
	}
	if a := h.audits.aggregation(); a != nil {
		// Register installs the node with LastHeartbeat = the
		// coordinator's now, which is the shared simulated clock's now.
		a.ObserveRegister(id, h.clock.Now())
	}
	if h.cfg.Replicated {
		// The leader it just joined plus the standby it can fail over to
		// on a leader change — whose ID is the hint a fenced leader will
		// give. Both are this link, which forwards to whoever leads.
		h.mu.Lock()
		lead, sb := h.serving, h.standby
		h.mu.Unlock()
		l.ag.SetEndpoints([]agent.Endpoint{{ID: lead.id, Link: l}, {ID: sb.id, Link: l}})
	}
	return resp, nil
}

// Heartbeat is the direct path (the only one without an aggregation
// tier, the fallback with one). Acknowledged beats are reported to the
// aggregation audit — it must see every ack or honest fallback traffic
// would read as fabrication — and, inside a duplicate-delivery window,
// the very same request (same beat sequence) is replayed: the
// coordinator's ingress guard must make it a no-op.
func (l chaosLink) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	h := l.h
	c, err := l.reach()
	if err != nil {
		return api.HeartbeatResponse{}, err
	}
	resp, err := c.Heartbeat(req)
	h.observeBeatAck(req, resp, err)
	if err == nil && resp.Acknowledged && !resp.Reregister {
		h.maybeReplay("heartbeat", "heartbeat "+req.MachineID, func() {
			_, _ = h.currentCoord().Heartbeat(req)
		})
	}
	return resp, err
}

// aggSender routes one agent's beats to its rack aggregator. Crash
// state lives in the aggregator itself (Stop makes Ingest refuse), so
// the shim only adds the audit tap.
type aggSender struct {
	h  *chaosHarness
	id string
}

func (s aggSender) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	g := s.h.aggs[s.id]
	if g == nil {
		return api.HeartbeatResponse{}, aggregator.ErrUnavailable
	}
	resp, err := g.Heartbeat(req)
	s.h.observeBeatAck(req, resp, err)
	return resp, err
}

// aggUpstream is one aggregator's coordinator link with the
// upstream-partition seam applied. Every forward is reported to the
// audit before the cut check — a batch the partition swallows was
// still sent — and learned epochs are reported on success.
type aggUpstream struct {
	h  *chaosHarness
	id string
}

var errAggUpstreamSevered = fmt.Errorf("chaos: aggregator upstream link severed")

func (u aggUpstream) IngestAggregated(b api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	a := u.h.audits.aggregation()
	if a != nil {
		a.ObserveForward(u.id, b.LeaderEpoch, b.WindowSeq)
	}
	u.h.mu.Lock()
	cut := u.h.aggCut[u.id]
	u.h.mu.Unlock()
	if cut {
		return api.AggregatedBeatResponse{}, errAggUpstreamSevered
	}
	resp, err := u.h.currentCoord().IngestAggregated(b)
	if err == nil && a != nil {
		a.ObserveAggEpoch(u.id, resp.LeaderEpoch)
	}
	return resp, err
}

// chaosHandle is the coordinator's transport to one agent, with the
// fault model applied: a crashed or partitioned node is unreachable
// for launches, kills and checkpoints, exactly as its HTTP endpoint
// would be.
type chaosHandle struct {
	h     *chaosHarness
	id    string
	inner core.AgentHandle
}

var errUnreachable = fmt.Errorf("chaos: node unreachable")

func (c chaosHandle) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	if c.h.silenced(c.id) {
		return api.LaunchResponse{}, errUnreachable
	}
	resp, err := c.inner.Launch(req)
	if err == nil {
		// Duplicate delivery of the launch request: the agent's ingress
		// must re-acknowledge the existing placement, not fail it or
		// start a second copy.
		c.h.maybeReplay("launch", "launch "+req.JobID+" on "+c.id, func() {
			resp2, err2 := c.inner.Launch(req)
			if err2 != nil || resp2 != resp {
				c.h.mu.Lock()
				c.h.dupViolations = append(c.h.dupViolations, invariant.Violation{
					Rule: "no-duplicate-side-effects",
					Detail: fmt.Sprintf("launch %s on %s not idempotent: err=%v resp=%+v first=%+v",
						req.JobID, c.id, err2, resp2, resp),
				})
				c.h.mu.Unlock()
			}
		})
	}
	return resp, err
}

func (c chaosHandle) Kill(req api.KillRequest) error {
	if c.h.silenced(c.id) {
		return errUnreachable
	}
	return c.inner.Kill(req)
}

func (c chaosHandle) Checkpoint(req api.CheckpointRequest) (api.CheckpointResponse, error) {
	if c.h.silenced(c.id) {
		return api.CheckpointResponse{}, errUnreachable
	}
	return c.inner.Checkpoint(req)
}

// dropBeat reports whether this beat falls inside an open partial-loss
// window and loses the coin toss. The decision runs before the agent
// builds the request, so its health buffer and beat sequence stay
// untouched — the dropped beat simply never happened, and the next one
// carries the accumulated events.
func (h *chaosHarness) dropBeat(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.lossOn[id] {
		return false
	}
	return h.lossRng.Intn(2) == 0
}

// beat arms the agent's heartbeat loop: agent.Beat every interval, the
// rack aggregator first when one is assigned (SendBeat re-delivers the
// very same beat direct on fallback, so the coordinator's sequence
// guard sees at most one effective copy). Beats from silenced (crashed
// or partitioned) nodes are dropped — silence is the platform's failure
// signal — and partial-loss windows drop individual beats
// probabilistically, both decided before the request is built.
func (h *chaosHarness) beat(ag *agent.Agent) {
	id := ag.MachineID()
	beatEvery(h.clock, h.cfg.HeartbeatInterval, ag, func() bool {
		return !h.silenced(id) && !h.dropBeat(id)
	})
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
		if !h.clock.Now().Before(end) {
			return
		}
		store := h.currentStore()
		active := store.CountJobsInState(db.JobPending) +
			store.CountJobsInState(db.JobRunning) +
			store.CountJobsInState(db.JobMigrating)
		for ; active < h.cfg.Jobs; active++ {
			submit()
		}
		h.clock.AfterFunc(15*time.Minute, topUp)
	}
	h.clock.AfterFunc(15*time.Minute, topUp)
}

// JobUpdate forwards a job report. Inside a duplicate-delivery window
// an answered report is replayed: the coordinator's terminal-state
// pre-check must make the replays true no-ops.
func (l chaosLink) JobUpdate(req api.JobUpdateRequest) error {
	c, err := l.reach()
	if err != nil {
		return err
	}
	if err := c.JobUpdate(req); err != nil {
		return err
	}
	l.h.maybeReplay("job-update", fmt.Sprintf("job-update %s on %s", req.JobID, req.MachineID), func() {
		_ = l.h.currentCoord().JobUpdate(req)
	})
	return nil
}

// Depart forwards an announced departure; from a silenced node it
// fails, and heartbeat loss must do the work.
func (l chaosLink) Depart(req api.DepartRequest) error {
	c, err := l.reach()
	if err != nil {
		return err
	}
	return c.Depart(req)
}

// --- chaos.Platform ---

// Store implements chaos.Platform.
func (h *chaosHarness) Store() db.Store { return h.currentStore() }

// CrashNode implements a power loss: workloads die instantly (no
// checkpoints), heartbeats stop, nobody tells the coordinator.
func (h *chaosHarness) CrashNode(id string) {
	ag := h.agents[id]
	if ag == nil || ag.Departed() {
		return
	}
	h.mu.Lock()
	if h.crashed[id] {
		h.mu.Unlock()
		return
	}
	h.crashed[id] = true
	h.mu.Unlock()
	ag.KillSwitch()
}

// DepartNode announces a departure with a 5-minute checkpoint grace.
func (h *chaosHarness) DepartNode(id string, temporary bool) {
	ag := h.agents[id]
	if ag == nil || ag.Departed() || h.silenced(id) {
		return
	}
	reason := api.DepartScheduled
	if temporary {
		reason = api.DepartTemporary
	}
	ag.Depart(reason, 5*time.Minute)
}

// ReturnNode brings a crashed or departed node back online.
func (h *chaosHarness) ReturnNode(id string) {
	ag := h.agents[id]
	if ag == nil {
		return
	}
	h.mu.Lock()
	wasCrashed := h.crashed[id]
	delete(h.crashed, id)
	h.graceUntil = h.clock.Now().Add(3 * h.cfg.HeartbeatInterval)
	h.mu.Unlock()
	if ag.Departed() {
		ag.Return()
		_ = joinLocal(ag)
		return
	}
	_ = wasCrashed // a crashed node resumes via its next heartbeat
}

// PartitionStart cuts the control plane to the nodes.
func (h *chaosHarness) PartitionStart(ids []string) {
	h.mu.Lock()
	for _, id := range ids {
		h.partitioned[id] = true
	}
	h.mu.Unlock()
}

// PartitionHeal restores the control plane; reconciliation runs on the
// next heartbeats.
func (h *chaosHarness) PartitionHeal(ids []string) {
	h.mu.Lock()
	for _, id := range ids {
		delete(h.partitioned, id)
	}
	h.graceUntil = h.clock.Now().Add(3 * h.cfg.HeartbeatInterval)
	h.mu.Unlock()
}

// LatencySpikeStart degrades the node's access link 20× with +5 ms
// latency; new transfers see the degraded rate.
func (h *chaosHarness) LatencySpikeStart(id string) {
	if h.net == nil {
		return
	}
	orig, ok := h.origLinks[id]
	if !ok {
		return
	}
	h.net.AddNode(netsim.NodeLink{
		Name:    id,
		Access:  orig.Access / 20,
		Latency: orig.Latency + 5*time.Millisecond,
	})
}

// LatencySpikeHeal restores the original link.
func (h *chaosHarness) LatencySpikeHeal(id string) {
	if h.net == nil {
		return
	}
	if orig, ok := h.origLinks[id]; ok {
		h.net.AddNode(orig)
	}
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
	h.mu.Lock()
	for _, id := range ids {
		h.dataPartitioned[id] = true
	}
	h.mu.Unlock()
}

// DataPartitionHeal restores both planes; reconciliation and checkpoint
// pushes resume on the next heartbeat/tick.
func (h *chaosHarness) DataPartitionHeal(ids []string) {
	h.mu.Lock()
	for _, id := range ids {
		delete(h.dataPartitioned, id)
	}
	h.graceUntil = h.clock.Now().Add(3 * h.cfg.HeartbeatInterval)
	h.mu.Unlock()
}

// SetCheckpointFault switches the injected damage under the checkpoint
// store's backing blobs.
func (h *chaosHarness) SetCheckpointFault(mode chaos.CkptFaultMode) {
	h.blob.SetMode(mode)
}

// --- chaos.GrayPlatform ---

// GrayDegradeStart opens a gray-degradation window: the node's health
// source starts emitting recoverable-XID and thermal events, which
// ride its next heartbeats to the coordinator. Nothing fails outright
// — the node keeps beating and its jobs keep running; only the health
// fold should push it out of service.
func (h *chaosHarness) GrayDegradeStart(id string) {
	if h.healthSrcs[id] == nil {
		return
	}
	h.mu.Lock()
	open := h.grayOn[id]
	h.grayOn[id] = true
	h.mu.Unlock()
	if !open {
		h.pumpGray(id, 0)
	}
}

// pumpGray injects one event batch and re-arms itself every heartbeat
// interval while the window stays open. The mix is deterministic in
// the tick counter: a critical thermal event each beat, plus a
// recoverable XID every third — enough to fold a node below the
// unhealthy threshold within a few beats.
func (h *chaosHarness) pumpGray(id string, tick int) {
	h.mu.Lock()
	open := h.grayOn[id]
	h.mu.Unlock()
	if !open {
		return
	}
	now := h.clock.Now()
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
	h.clock.AfterFunc(h.cfg.HeartbeatInterval, func() { h.pumpGray(id, tick+1) })
}

// GrayDegradeHeal closes the window; the pump stops re-arming and the
// coordinator's decay sweep folds the node back toward healthy.
func (h *chaosHarness) GrayDegradeHeal(id string) {
	h.mu.Lock()
	delete(h.grayOn, id)
	h.mu.Unlock()
}

// PartialLossStart opens a partial heartbeat-loss window: roughly
// every second beat from the node is dropped in flight. The path is
// degraded, not dead — the node must neither be declared lost nor
// double-ingest the health events its surviving beats carry.
func (h *chaosHarness) PartialLossStart(id string) {
	h.mu.Lock()
	h.lossOn[id] = true
	h.mu.Unlock()
}

// PartialLossHeal restores reliable delivery. The heal grants the same
// reconciliation grace a partition heal does: inside the window the
// coordinator may have declared the node lost and re-placed its jobs,
// and the orphan-killing beat exchange needs reliable delivery to land.
func (h *chaosHarness) PartialLossHeal(id string) {
	h.mu.Lock()
	delete(h.lossOn, id)
	h.graceUntil = h.clock.Now().Add(3 * h.cfg.HeartbeatInterval)
	h.mu.Unlock()
}

// lossy reports whether the node sits inside an open partial-loss
// window.
func (h *chaosHarness) lossy(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lossOn[id]
}

// SetCheckpointReadRot toggles silent damage on the checkpoint store's
// read path; stored bytes stay intact.
func (h *chaosHarness) SetCheckpointReadRot(enabled bool) {
	h.blob.SetReadRot(enabled)
}

// --- chaos.AggPlatform ---

// CrashAggregator kills a rack relay: its open flush window's deltas
// die with it (the tier's bounded-lag allowance) and its agents' next
// beats fail over to the direct path.
func (h *chaosHarness) CrashAggregator(id string) {
	if g := h.aggs[id]; g != nil {
		g.Stop()
	}
}

// RestartAggregator brings the relay back empty; its agents promote it
// again on their next beat.
func (h *chaosHarness) RestartAggregator(id string) {
	if g := h.aggs[id]; g != nil {
		g.Restart()
	}
}

// AggPartitionStart severs the relay's upstream link: the next forward
// fails, the aggregator degrades (refusing its agents' beats, which
// fall back direct) and probes until the heal.
func (h *chaosHarness) AggPartitionStart(id string) {
	h.mu.Lock()
	h.aggCut[id] = true
	h.mu.Unlock()
}

// AggPartitionHeal restores the upstream link and heals the relay's
// degraded state, as its next successful probe would.
func (h *chaosHarness) AggPartitionHeal(id string) {
	h.mu.Lock()
	delete(h.aggCut, id)
	h.mu.Unlock()
	if g := h.aggs[id]; g != nil {
		g.Heal()
	}
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

	rep, err := h.openReplica(old.dir, "")
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
	return vs
}

// install routes traffic to rep, a replica that is open (or promoted)
// but not started: the stream audits re-attach at this quiescent point,
// then the replica starts and the reachable fleet re-joins it. Silenced
// nodes re-register when they come back, through the Reregister or
// ErrNotLeader answer to their next beat.
func (h *chaosHarness) install(rep *replica) {
	h.mu.Lock()
	h.serving = rep
	h.graceUntil = h.clock.Now().Add(3 * h.cfg.HeartbeatInterval)
	h.mu.Unlock()
	h.audits.attach(rep.Store())
	// The unhealthy exclusion must survive the re-join: no health fold
	// happens between here and the end of the loop below, so a node the
	// recovered store holds below the threshold must still be below it
	// once it has re-registered — a registration that rebuilt the record
	// without its score would make a gray-failing node placeable again.
	var unhealthy []db.NodeRecord
	for _, n := range rep.Store().ListNodes() {
		if n.HealthScore() < monitor.UnhealthyBelow {
			unhealthy = append(unhealthy, n)
		}
	}
	rep.Start()
	for _, id := range h.nodeIDs {
		ag := h.agents[id]
		if !ag.Departed() && !h.silenced(id) {
			_ = joinLocal(ag)
		}
	}
	for _, was := range unhealthy {
		if now, err := rep.Store().GetNode(was.ID); err == nil && now.HealthScore() >= monitor.UnhealthyBelow {
			h.mu.Lock()
			h.replViolations = append(h.replViolations, invariant.Violation{
				Rule: "no-placement-on-unhealthy",
				Detail: fmt.Sprintf("node %s re-registered with the new coordinator at health %v; the recovered store held %v (folded %s) and nothing folded since",
					was.ID, now.HealthScore(), was.HealthScore(), was.HealthAt.Format(time.RFC3339)),
			})
			h.mu.Unlock()
		}
	}
}

// --- chaos.ReplicatedPlatform ---

// KillLeader kills the serving leader outright — process gone, log
// closed, lease left to expire — and starts the standby's promotion.
// The promotion completes only once the dead leader's grant plus the
// arbiter's skew-tolerance grace has passed (TryLead retries until
// then), at which point finishTakeover audits zero lost acked mutations
// and installs the successor.
func (h *chaosHarness) KillLeader() []invariant.Violation {
	if !h.cfg.Replicated {
		return nil
	}
	if rep := h.settledLeader(); rep != nil {
		_ = rep.Kill()
		h.beginTakeover(rep.Store())
	}
	return nil
}

// settledLeader returns the serving leader, or nil while a split-brain
// window or a takeover is open (or the leader has lapsed): there is no
// settled leader to fault then, and the schedule moves on.
func (h *chaosHarness) settledLeader() *replica {
	h.mu.Lock()
	busy := h.splitOpen || h.pendingTakeover != nil
	rep := h.serving
	h.mu.Unlock()
	if busy || !rep.Coordinator().Leading() {
		return nil
	}
	return rep
}

// beginTakeover starts the standby's lease-acquisition loop. deadStore
// is the fenced ex-leader's final state — the acked baseline
// finishTakeover audits against.
func (h *chaosHarness) beginTakeover(deadStore db.Store) {
	h.mu.Lock()
	t := &takeover{rep: h.standby, deadStore: deadStore}
	h.pendingTakeover = t
	h.mu.Unlock()
	h.awaitTakeover(t)
}

// awaitTakeover retries the standby's lease acquisition every two
// seconds. The retries fail exactly as long as the protocol demands:
// until the previous grant plus the skew-tolerance grace has run out —
// the window in which a zombie predecessor might still believe it
// leads.
func (h *chaosHarness) awaitTakeover(t *takeover) {
	h.mu.Lock()
	live := h.pendingTakeover == t
	h.mu.Unlock()
	if !live {
		return
	}
	if t.rep.Coordinator().TryLead() {
		h.finishTakeover(t)
		return
	}
	h.clock.AfterFunc(2*time.Second, func() { h.awaitTakeover(t) })
}

// finishTakeover completes a promotion whose standby now holds the
// lease. The grant is the linearization point: the arbiter's grace
// guarantees the predecessor self-fenced before it, so deadStore is
// final and every mutation it ever acked must already be on the standby
// — the zero-lost-acked audit checks exactly that, between Promote
// (final catch-up, drain, own log seeded with a snapshot of the
// inherited state) and Start. A fresh standby is then bootstrapped from
// the new leader's log, and the fleet re-attaches under the new epoch.
func (h *chaosHarness) finishTakeover(t *takeover) {
	fail := func(stage string, err error) {
		h.mu.Lock()
		h.pendingTakeover = nil
		h.replViolations = append(h.replViolations, invariant.Violation{
			Rule:   "failover-failed",
			Detail: fmt.Sprintf("%s: %v", stage, err),
		})
		h.mu.Unlock()
	}
	h.leaderLog.RecordTerm(t.rep.Coordinator().Epoch(), t.rep.id)
	before := t.deadStore.ExportState()
	if err := t.rep.Promote(); err != nil {
		fail("promotion", err)
		return
	}
	vs := invariant.CheckNoLostAcked(before, t.rep.Store().ExportState())
	next, err := h.openStandby(t.rep)
	if err != nil {
		fail("next standby bootstrap", err)
		return
	}

	h.mu.Lock()
	h.standby = next
	h.failovers++
	h.pendingTakeover = nil
	h.replViolations = append(h.replViolations, vs...)
	h.mu.Unlock()
	h.install(t.rep)
}

// SplitBrainStart isolates the serving leader from the lease arbiter
// and steps its local clock 90 s behind true time — within the
// arbiter's 2 min skew tolerance — then starts a rival promotion. The
// zombie keeps serving whatever traffic reaches it; the protocol must
// guarantee it observes its own expiry (and self-fences) before the
// rival can win the lease.
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
	rep.cut.Cut(true)
	rep.skew.SetOffset(-90 * time.Second)
	h.beginTakeover(rep.Store())
}

// SplitBrainHeal reconnects the zombie's arbiter link and clock. If the
// zombie never lapsed (a short window: its cached grant stayed live and
// the next renewal extends it), the rival promotion is aborted and the
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
	z.cut.Cut(false)
	_, cur := h.lease.Leader()

	if z.Coordinator().Leading() && cur == zEpoch {
		// Survived: no successor exists and the grant is still live, so
		// the zombie resumes as the rightful leader and the standby —
		// whose every acquisition attempt was refused — goes on tailing
		// it.
		h.mu.Lock()
		h.splitOpen = false
		h.zombie, h.zombieEpoch = nil, 0
		h.pendingTakeover = nil
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
			ag := h.agents[id]
			if ag.Departed() || h.silenced(id) || ag.CoordEpoch() <= zEpoch {
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
	// If the takeover is still waiting out the grace, the killed zombie
	// stays installed — fenced, its log closed — until the successor is.
	_ = z.Kill()
	h.mu.Lock()
	h.splitOpen = false
	h.zombie, h.zombieEpoch = nil, 0
	h.mu.Unlock()
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
	vs = append(vs, h.dupViolations...)
	h.dupViolations = nil
	vs = append(vs, h.replViolations...)
	h.replViolations = nil
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
	// health scores; the roll-up tier fabricated no liveness and
	// persistently lost none — and the unhealthy-placement exclusion is
	// pure store state: none needs a reconciliation grace. The
	// aggregation tolerance covers a crashed flush window (half a beat)
	// plus the beats a node needs to re-deliver through the direct path
	// after a relay failure.
	vs = append(vs, h.audits.check(store, 5*h.cfg.HeartbeatInterval)...)
	vs = append(vs, invariant.CheckNoPlacementOnUnhealthy(store)...)
	live := store.JobsInState(db.JobPending)
	live = append(live, store.JobsInState(db.JobRunning)...)
	live = append(live, store.JobsInState(db.JobMigrating)...)
	vs = append(vs, invariant.CheckCheckpoints(h.ckpts, live)...)
	h.mu.Lock()
	grace := h.graceUntil
	h.mu.Unlock()
	if h.clock.Now().Before(grace) {
		return vs
	}
	vs = append(vs, invariant.CheckSkewLiveness(store, h.skewedHealthyNodes())...)
	vs = append(vs, h.checkDegradedDrained(store)...)
	for _, id := range h.nodeIDs {
		ag := h.agents[id]
		// Lossy nodes are skipped like silenced ones: mid-window the
		// coordinator may legitimately have re-placed their jobs while
		// the orphan-killing reconciliation beats are being dropped.
		if ag.Departed() || h.silenced(id) || h.lossy(id) {
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
			if rec.NodeID != id || (rec.State != db.JobRunning && rec.State != db.JobMigrating) {
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
	now := h.clock.Now()
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
	// Ten beat intervals: detection takes a beat, the checkpoint and
	// plan are immediate, and the transfer plus one sweep-cadence retry
	// fit comfortably inside the rest.
	return invariant.CheckDegradedDrained(store, since, now, 10*h.cfg.HeartbeatInterval)
}

// skewedHealthyNodes lists the nodes whose *only* current fault is an
// injected clock offset: skewed, but reachable and still a member.
// Exactly these must stay in service (skew-bounded-liveness).
func (h *chaosHarness) skewedHealthyNodes() []string {
	h.mu.Lock()
	ids := make([]string, 0, len(h.skews))
	for id := range h.skews {
		if h.crashed[id] || h.partitioned[id] || h.dataPartitioned[id] {
			continue
		}
		ids = append(ids, id)
	}
	h.mu.Unlock()
	out := ids[:0]
	for _, id := range ids {
		if ag := h.agents[id]; ag != nil && !ag.Departed() {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// --- Canned scenarios (the CI gates: make verify-chaos, verify-failover,
// verify-gray, verify-agg) ---

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
	// The aggregation-tier crash schedule: the paper campus beats through
	// four rack aggregators while relays are killed mid-flush-window
	// (their open deltas legitimately die) and restarted empty, under
	// churn and a coordinator crash on a WAL-backed store. The subjects
	// are the aggregation-equivalence audit — no fabricated or
	// persistently lost liveness through relay deaths — the agents'
	// direct-path fallback and re-promotion, and the roll-up surviving
	// coordinator recovery (the audit's ledger spans the store swap).
	{Name: "agg-crash", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:           6 * time.Hour,
			ChurnPerNodePerDay: 2,
			AggCrashesPerDay:   24,
			MeanAggOutage:      10 * time.Minute,
			CoordCrashes:       1,
		},
		Jobs:        16,
		Aggregators: 4,
		EnableWAL:   true,
	}},
	// The aggregation-tier partition schedule: upstream links between
	// relays and the coordinator are severed while gray-degrading nodes
	// stream health events, so health-carrying pass-through beats must
	// fail over to the direct path un-acked and re-deliver without loss or
	// double-ingestion. The subjects are degradation + direct fallback (a
	// cut relay must refuse beats, not black-hole them), the
	// health-completeness half of the equivalence audit, and relay
	// re-promotion after the heal.
	{Name: "agg-partition+fallback", Config: ChaosConfig{
		Spec: chaos.Spec{
			Duration:            6 * time.Hour,
			ChurnPerNodePerDay:  2,
			AggPartitionsPerDay: 18,
			MeanAggPartition:    12 * time.Minute,
			GrayDegradesPerDay:  6,
			MeanGrayDegrade:     20 * time.Minute,
		},
		Jobs:        16,
		Aggregators: 4,
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
