package sim

import (
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/workload"
)

// The migration experiment's fixed shape (paper Fig. 3 and §4
// "Interruption Scenarios").
const (
	// fig3Days is the experiment horizon (paper: 7).
	fig3Days = 7
	// fig3Jobs is the training population kept running (paper: 20).
	fig3Jobs = 20
	// fig3InterruptionsPerDay is the per-volunteer-node event rate
	// (paper range: 0.5–3.2).
	fig3InterruptionsPerDay = 1.6
	// fig3Deadline is the time bound for "successfully migrated within
	// the specified time": 30 s of restore-transfer delay.
	fig3Deadline = 30 * time.Second
)

// Fig3Config parameterises the migration experiment: 20 deep-learning
// training jobs on volunteer provider nodes over one week, with provider
// interruptions across three scenario classes.
type Fig3Config struct {
	// CheckpointInterval is the periodic ALC cadence (default 10 min).
	CheckpointInterval time.Duration
	// Seed drives the stochastic processes.
	Seed int64
	// ScenarioWeights orders [scheduled, emergency, temporary]
	// probabilities; zero value means uniform thirds.
	ScenarioWeights [3]float64
}

// ScenarioResult aggregates one interruption class.
type ScenarioResult struct {
	// Events is the number of provider interruptions of this class.
	Events int
	// Displaced is how many running jobs those events hit.
	Displaced int
	// MigrationSuccessRate is the fraction of displaced jobs relaunched
	// within the configured deadline (the paper's 94% for scheduled
	// departures). Failed migrations count against it.
	MigrationSuccessRate float64
	// MeanWorkLost is the average compute time redone per displaced
	// job (emergency: ≈ the checkpoint interval; scheduled: ≈ 0).
	MeanWorkLost time.Duration
	// MeanDowntime is the average checkpoint-transfer delay before the
	// job ran again.
	MeanDowntime time.Duration
}

// Fig3Result is the full experiment outcome.
type Fig3Result struct {
	Scheduled ScenarioResult
	Emergency ScenarioResult
	Temporary ScenarioResult
	// MigratedBackFraction is the share of temporarily-displaced jobs
	// that returned to their original node when the provider
	// reconnected (paper: 67%).
	MigratedBackFraction float64
	// CheckpointInterval echoes the configured cadence for reporting.
	CheckpointInterval time.Duration
}

// repeatSpec builds n copies of a GPU spec.
func repeatSpec(s gpu.Spec, n int) []gpu.Spec {
	out := make([]gpu.Spec, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// fig3Campus is the migration-experiment topology: two volunteer
// provider nodes (the paper's interruption subjects) and two stable
// nodes that absorb displaced work.
func fig3Campus() []NodeDef {
	return []NodeDef{
		{ID: "vol-1", GPUs: repeatSpec(gpu.RTX3090, 6), Lab: "volunteer"},
		{ID: "vol-2", GPUs: repeatSpec(gpu.RTX3090, 6), Lab: "volunteer"},
		{ID: "stable-1", GPUs: repeatSpec(gpu.RTX4090, 8), Lab: "stable"},
		{ID: "stable-2", GPUs: repeatSpec(gpu.A6000, 12), Lab: "stable"},
	}
}

// fig3Spec draws one hours-scale training job (CNN and transformer mix,
// roughly 2–6 h on a 3090) that fits the volunteer nodes' 24 GiB
// devices. The corpus turns over during the week, so fresh placements
// keep landing across every node, volunteers included.
func fig3Spec(rng interface{ Float64() float64 }, i int) workload.TrainingSpec {
	bases := []workload.TrainingSpec{workload.SmallCNN, workload.SmallTransformer, workload.LargeCNN}
	base := bases[i%len(bases)]
	s := base
	if base.StateBytes < 1e9 {
		s.TotalSteps = base.TotalSteps * 3 // stretch SmallCNN into the band
	}
	f := 0.8 + rng.Float64()*0.4
	s.TotalSteps = int64(float64(s.TotalSteps) * f)
	s.StateBytes = int64(float64(base.StateBytes) * f)
	if s.StateBytes > 1_800_000_000 {
		s.StateBytes = 1_800_000_000
	}
	return s
}

// RunFig3 executes the interruption experiment.
func RunFig3(cfg Fig3Config) (Fig3Result, error) {
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * time.Minute
	}
	if cfg.ScenarioWeights == [3]float64{} {
		cfg.ScenarioWeights = [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	const span = fig3Days * 24 * time.Hour

	campus, err := NewCampus(fig3Campus(), CampusConfig{
		HeartbeatInterval: 30 * time.Second,
		ProgressTick:      30 * time.Second,
		WithNetwork:       true,
	})
	if err != nil {
		return Fig3Result{}, err
	}
	defer campus.Stop()

	tracker := &fig3Tracker{campus: campus}
	ledger := newMigrationLedger(func(node string) int {
		n := 0
		for _, job := range campus.Coord.DB().JobsOnNode(node) {
			if job.State == db.JobRunning {
				n++
			}
		}
		return n
	})
	campus.Coord.Trace().Observe(ledger.observe)
	demand := NewDemand(cfg.Seed + 77)
	rng := demand.Rand()

	// Maintain a population of fig3Jobs concurrent training jobs: each
	// completion is followed by a fresh submission, so the experiment
	// observes a steadily loaded platform with natural turnover.
	corpusRng := NewDemand(cfg.Seed + 99).Rand()
	corpusN := 0
	submitNext := func() {
		spec := fig3Spec(corpusRng, corpusN)
		corpusN++
		_, _ = campus.Coord.SubmitJob(TrainingJobSubmission("researcher", spec, cfg.CheckpointInterval))
	}
	campus.Coord.Trace().Observe(func(ev obs.Event) {
		if ev.Kind != obs.KindJobCompleted || !campus.Clock.Now().Before(Epoch.Add(span-time.Hour)) {
			return
		}
		// Population control: completions are announced by both the
		// agent and the coordinator, so top up against the live count
		// instead of submitting once per event.
		d := campus.Coord.DB()
		active := d.CountJobsInState(db.JobPending) +
			d.CountJobsInState(db.JobRunning) +
			d.CountJobsInState(db.JobMigrating)
		for ; active < fig3Jobs; active++ {
			submitNext()
		}
	})
	for i := 0; i < fig3Jobs; i++ {
		submitNext()
	}

	// Interruption process per volunteer node: exponential inter-event
	// times at the configured rate, scenario drawn by weight, provider
	// returning after 30 min – 3 h.
	for _, nodeID := range []string{"vol-1", "vol-2"} {
		nodeID := nodeID
		var arm func()
		arm = func() {
			gap := time.Duration(rng.ExpFloat64() / fig3InterruptionsPerDay * float64(24*time.Hour))
			if gap < 5*time.Minute {
				gap = 5 * time.Minute
			}
			campus.Clock.AfterFunc(gap, func() {
				if campus.Clock.Now().After(Epoch.Add(span)) {
					return
				}
				ag := campus.Agents[nodeID]
				if !ag.Departed() {
					scenario := drawScenario(rng.Float64(), cfg.ScenarioWeights)
					tracker.interrupt(nodeID, scenario)
					ret := 30*time.Minute + time.Duration(rng.Int63n(int64(90*time.Minute)))
					campus.Clock.AfterFunc(ret, func() { tracker.bringBack(nodeID) })
				}
				arm()
			})
		}
		arm()
	}

	campus.Run(span)
	return tracker.result(ledger, cfg), nil
}

func drawScenario(x float64, w [3]float64) api.DepartReason {
	total := w[0] + w[1] + w[2]
	x *= total
	if x < w[0] {
		return api.DepartScheduled
	}
	if x < w[0]+w[1] {
		return api.DepartEmergency
	}
	return api.DepartTemporary
}

// fig3Tracker instruments interruptions: it records, per event, the
// true progress of each displaced job just before the departure, and
// the checkpointed progress available afterwards — the difference is
// the work lost.
type fig3Tracker struct {
	campus *Campus

	events            map[api.DepartReason]int
	displaced         map[api.DepartReason]int
	lost              map[api.DepartReason]time.Duration
	tempDisplacedJobs int
}

func (t *fig3Tracker) init() {
	if t.events == nil {
		t.events = make(map[api.DepartReason]int)
		t.displaced = make(map[api.DepartReason]int)
		t.lost = make(map[api.DepartReason]time.Duration)
	}
}

// interrupt executes one provider departure and accounts its damage.
func (t *fig3Tracker) interrupt(nodeID string, scenario api.DepartReason) {
	t.init()
	t.events[scenario]++
	ag := t.campus.Agents[nodeID]

	// Pre-departure truth: each running job's actual step.
	preSteps := make(map[string]int64)
	stepTimes := make(map[string]time.Duration)
	for _, job := range t.campus.Coord.DB().JobsOnNode(nodeID) {
		if wj, ok := ag.RunningJob(job.ID); ok {
			preSteps[job.ID] = wj.Step()
			stepTimes[job.ID] = wj.Spec.StepTime(gpu.RTX3090)
		}
	}

	grace := 5 * time.Minute
	if scenario == api.DepartEmergency {
		grace = 0
	}
	ag.Depart(scenario, grace)

	// Post-departure accounting: lost work = true progress minus the
	// progress recoverable from the latest checkpoint.
	for jobID, pre := range preSteps {
		t.displaced[scenario]++
		if scenario == api.DepartTemporary {
			t.tempDisplacedJobs++
		}
		var ckStep int64
		if ck, err := t.campus.Ckpts.Latest(jobID); err == nil {
			ckStep = ck.Progress.Step
		}
		lostSteps := pre - ckStep
		if lostSteps < 0 {
			lostSteps = 0
		}
		t.lost[scenario] += time.Duration(lostSteps) * stepTimes[jobID]
	}
}

// bringBack returns the provider to the platform, whatever the
// departure: the machine comes back as a fresh agent under the same ID,
// which registers anew.
func (t *fig3Tracker) bringBack(nodeID string) {
	if t.campus.Agents[nodeID].Departed() {
		_ = t.campus.Reboot(nodeID)
	}
}

func (t *fig3Tracker) result(ledger *migrationLedger, cfg Fig3Config) Fig3Result {
	t.init()
	build := func(scenario api.DepartReason) ScenarioResult {
		r := ScenarioResult{Events: t.events[scenario], Displaced: t.displaced[scenario]}
		r.MigrationSuccessRate, r.MeanDowntime = ledger.scenario(scenario, fig3Deadline)
		if n := t.displaced[scenario]; n > 0 {
			r.MeanWorkLost = t.lost[scenario] / time.Duration(n)
		}
		return r
	}
	res := Fig3Result{
		Scheduled:          build(api.DepartScheduled),
		Emergency:          build(api.DepartEmergency),
		Temporary:          build(api.DepartTemporary),
		CheckpointInterval: cfg.CheckpointInterval,
	}
	if t.tempDisplacedJobs > 0 {
		res.MigratedBackFraction = float64(ledger.migratedBack) / float64(t.tempDisplacedJobs)
	}
	return res
}

// migrationLedger is Fig. 3's migration record, projected from the
// flight recorder (an Observe hook): the coordinator keeps no
// statistics of its own, so the figure reads what the platform already
// records.
//
//   - An attempt is each job the store shows running on a node when the
//     coordinator records that node leaving service: node.departed for
//     an announced departure (reason scheduled or temporary),
//     node.unreachable for a detected loss (emergency). The agent's own
//     node.departed of an emergency departure precedes that detection
//     while its jobs still read running, so it is not one.
//   - A success is a job.migrated event of the same reason; its downtime
//     runs from the departure of the node it left until the job can step
//     again on its target: the target agent's job.started, which the
//     coordinator's record follows at once, plus that event's
//     restore_delay, the time the chain's bytes took to arrive.
//   - Each job.migrated_back event is one migrate-back.
type migrationLedger struct {
	// running counts the jobs the store shows running on a node.
	running func(node string) int
	// departedAt is each node's latest departure that displaced jobs.
	departedAt map[string]time.Time
	// resumesAt is when each job's latest start lets it step: its
	// job.started time plus the restore delay recorded there.
	resumesAt map[string]time.Time
	attempts  map[api.DepartReason]int
	// downtimes lists each success's downtime.
	downtimes map[api.DepartReason][]time.Duration
	// migratedBack counts the jobs moved back to their original node.
	migratedBack int
}

func newMigrationLedger(running func(node string) int) *migrationLedger {
	return &migrationLedger{
		running:    running,
		departedAt: make(map[string]time.Time),
		resumesAt:  make(map[string]time.Time),
		attempts:   make(map[api.DepartReason]int),
		downtimes:  make(map[api.DepartReason][]time.Duration),
	}
}

// observe folds one recorded event into the ledger.
func (l *migrationLedger) observe(ev obs.Event) {
	switch ev.Kind {
	case obs.KindNodeDeparted, obs.KindNodeUnreachable:
		reason := api.DepartEmergency
		if ev.Kind == obs.KindNodeDeparted {
			if reason = api.DepartReason(ev.Detail["reason"]); reason == api.DepartEmergency {
				return // the agent's own record; the sweep detects the loss
			}
		}
		if n := l.running(ev.Node); n > 0 {
			l.attempts[reason] += n
			l.departedAt[ev.Node] = ev.Time
		}
	case obs.KindJobStarted:
		delay, _ := time.ParseDuration(ev.Detail["restore_delay"]) // absent: a fresh start
		l.resumesAt[ev.Job] = ev.Time.Add(delay)
	case obs.KindJobMigrated:
		reason := api.DepartReason(ev.Detail["reason"])
		at, ok := l.departedAt[ev.Detail["from"]]
		if !ok || l.attempts[reason] == 0 {
			return // a predictive drain, which no departure attempted
		}
		l.downtimes[reason] = append(l.downtimes[reason], l.resumesAt[ev.Job].Sub(at))
	case obs.KindJobMigratedBack:
		l.migratedBack++
	}
}

// scenario returns the share of a reason's attempts relaunched with
// downtime at most deadline — the paper's "successfully migrated within
// the specified time", which failed migrations count against — and the
// mean downtime of its successes.
func (l *migrationLedger) scenario(reason api.DepartReason, deadline time.Duration) (rate float64, mean time.Duration) {
	within, sum := 0, time.Duration(0)
	for _, d := range l.downtimes[reason] {
		sum += d
		if d <= deadline {
			within++
		}
	}
	if n := len(l.downtimes[reason]); n > 0 {
		mean = sum / time.Duration(n)
	}
	if n := l.attempts[reason]; n > 0 {
		rate = float64(within) / float64(n)
	}
	return rate, mean
}
