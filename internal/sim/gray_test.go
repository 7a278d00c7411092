package sim

import (
	"testing"
	"time"

	"gpunion/internal/chaos"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
	"gpunion/internal/workload"
)

// countTrace tallies flight-recorder entries of one kind.
func countTrace(events []obs.Event, kind string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// TestChaosGrayDegrade: nodes degrade without dying — XID and thermal
// events stream in on heartbeats — under churn and a coordinator
// crash. The health fold must stay stream-consistent (including across
// crash recovery), the scheduler must stop placing on unhealthy nodes,
// and predictive checkpoint-then-migrate must drain them.
func TestChaosGrayDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL fsyncs")
	}
	res, err := runGoldenSchedule("gray-degrade")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindGrayDegrade] == 0 {
		t.Errorf("no gray-degradation window opened: %v", res.Report.Executed)
	}
	if res.Recoveries == 0 {
		t.Error("no coordinator crash exercised health-state recovery")
	}
	degraded := countTrace(res.Trace, obs.KindHealthDegraded)
	predictive := countTrace(res.Trace, obs.KindPredictiveMigrate)
	if degraded == 0 {
		t.Error("gray windows opened but no node ever crossed the unhealthy threshold")
	}
	if predictive == 0 {
		t.Error("nodes crossed the unhealthy threshold but no predictive migration ran")
	}
	t.Logf("grayWindows=%d degraded=%d predictiveMigrations=%d",
		res.Report.Executed[chaos.KindGrayDegrade], degraded, predictive)
}

// TestChaosPartialLoss: gray degradation under a lossy control path —
// every other heartbeat dropped — on a replicated pair with a leader
// kill. Health events must accumulate and ride the next surviving beat
// without double-ingestion, the half-dead path must not get nodes
// declared lost, and the folded health state must survive standby
// promotion.
func TestChaosPartialLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL shipping")
	}
	res, err := runGoldenSchedule("partial-loss")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindPartialLoss] == 0 {
		t.Errorf("no partial-loss window opened: %v", res.Report.Executed)
	}
	if res.Failovers == 0 {
		t.Error("no leader handoff exercised health-state promotion")
	}
	if countTrace(res.Trace, obs.KindHealthDegraded) == 0 {
		t.Error("gray windows opened but no node ever crossed the unhealthy threshold")
	}
}

// TestChaosCkptReadRot: checkpoint blobs stored intact but rotting on
// read during fault windows, while gray degradation forces predictive
// migrations straight through the damage. The store's CRC frames must
// catch every rotted copy and restores must fall back to an intact
// generation.
func TestChaosCkptReadRot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL fsyncs")
	}
	res, err := runGoldenSchedule("ckpt-read-rot")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindCkptReadRot] == 0 {
		t.Errorf("no read-rot window opened: %v", res.Report.Executed)
	}
	if res.CkptReadFaultsInjected == 0 {
		t.Error("rot windows opened but no read was actually damaged")
	}
	if res.CkptCorruptionsDetected == 0 {
		t.Error("reads were damaged but the CRC detector never fired")
	}
	t.Logf("rotWindows=%d rottedReads=%d detected=%d",
		res.Report.Executed[chaos.KindCkptReadRot],
		res.CkptReadFaultsInjected, res.CkptCorruptionsDetected)
}

// TestGrayPredictiveDrain scripts the tentpole end to end: a healthy
// campus runs training jobs, one node is driven below the unhealthy
// threshold through injected health events, and the coordinator must
// checkpoint-then-migrate its jobs off before anything fails — zero
// lost work — while the scheduler stops placing there. Once the events
// stop, the decay sweep must fold the node back into service.
func TestGrayPredictiveDrain(t *testing.T) {
	campus, err := NewCampus(PaperCampus(), CampusConfig{WithHealthSources: true})
	if err != nil {
		t.Fatal(err)
	}
	defer campus.Stop()
	for i := 0; i < 8; i++ {
		if _, err := campus.Coord.SubmitJob(
			TrainingJobSubmission("user", workload.SmallCNN, 5*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	// Let the fleet settle and cut at least one checkpoint generation.
	campus.Run(20 * time.Minute)

	store := campus.Coord.DB()
	victim := ""
	var victimJobs []db.JobRecord
	for _, d := range campus.Defs {
		var running []db.JobRecord
		for _, j := range store.JobsOnNode(d.ID) {
			if j.State == db.JobRunning {
				running = append(running, j)
			}
		}
		if len(running) > 0 {
			victim, victimJobs = d.ID, running
			break
		}
	}
	if victim == "" {
		t.Fatal("no node hosts a running job after warm-up")
	}

	// A fatal XID is the strongest signal: one event folds the node
	// straight through the unhealthy threshold on its next beat.
	campus.Health[victim].Inject(gpu.HealthEvent{
		Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical,
		DeviceID: "GPU-0", XID: 79, At: campus.Clock.Now(),
		Message: "test: GPU has fallen off the bus",
	})
	// Two beats: one to carry the event, one of margin for the drain's
	// relaunches to land (transfers are instant without the LAN model).
	campus.Run(2 * time.Minute)

	n, err := store.GetNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n.HealthScore() >= monitor.UnhealthyBelow {
		t.Fatalf("victim %s health %v, still at or above the unhealthy threshold %v",
			victim, n.HealthScore(), monitor.UnhealthyBelow)
	}

	// Give retries a few sweeps, then the drain must be complete.
	campus.Run(10 * time.Minute)
	for _, was := range victimJobs {
		cur, err := store.GetJob(was.ID)
		if err != nil {
			t.Fatalf("job %s vanished during the drain", was.ID)
		}
		if cur.State == db.JobFailed {
			t.Errorf("job %s failed during a predictive drain — the whole point is moving it before anything fails", was.ID)
		}
		if cur.State == db.JobRunning && cur.NodeID == victim {
			t.Errorf("job %s still runs on the unhealthy node %s", was.ID, victim)
		}
		if cur.State == db.JobRunning && cur.Migrations == 0 {
			t.Errorf("job %s runs on %s without a recorded migration", was.ID, cur.NodeID)
		}
		// Zero lost work: the drain checkpointed before killing, so a
		// restorable generation must exist for every moved job.
		if cur.State == db.JobRunning {
			if _, err := campus.Ckpts.Latest(was.ID); err != nil {
				t.Errorf("job %s migrated without a restorable checkpoint: %v", was.ID, err)
			}
		}
	}
	// The scheduler must not have placed anything new on the victim
	// while it sat below the threshold.
	if vs := invariant.CheckNoPlacementOnUnhealthy(store); len(vs) != 0 {
		t.Errorf("placements landed on unhealthy nodes: %v", vs)
	}

	// Recovery: no further events, so the decay sweep folds the score
	// back up; within half an hour the node is schedulable again.
	campus.Run(30 * time.Minute)
	n, err = store.GetNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if n.HealthScore() < monitor.UnhealthyBelow {
		t.Errorf("victim %s health %v never decayed back above %v after the fault cleared",
			victim, n.HealthScore(), monitor.UnhealthyBelow)
	}
}

// TestGrayCrashKeepsUnhealthyExclusion: a coordinator crash makes every
// agent re-register on its next beat, and Register rebuilds the node
// record from the request. A node that was below the unhealthy
// threshold when the coordinator died must come back from the log with
// its score, keep it through its re-registration with the successor —
// the harness's registration tap raises no-placement-on-unhealthy
// otherwise, because a laundered score makes a gray-failing node
// placeable again with no fold in between — and still be below the
// threshold once the fleet has re-joined.
func TestGrayCrashKeepsUnhealthyExclusion(t *testing.T) {
	cfg := ChaosConfig{Defs: PaperCampus(), Jobs: 8, EnableWAL: true}
	h, err := newChaosHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	h.startTraffic(1)
	h.Clock.Advance(10 * time.Minute)

	victim := h.nodeIDs[0]
	h.GrayDegradeStart(victim)
	h.Clock.Advance(10 * time.Minute)
	before, err := h.currentStore().GetNode(victim)
	if err != nil || before.HealthScore() >= monitor.UnhealthyBelow {
		t.Fatalf("victim %s not driven below the threshold: %v, %v", victim, before.HealthScore(), err)
	}

	crashAt := h.Clock.Now()
	vs := h.CrashCoordinator()
	recovered, err := h.currentStore().GetNode(victim)
	if err != nil || recovered.Health != before.Health || !recovered.HealthAt.Equal(before.HealthAt) {
		t.Fatalf("victim %s recovered at health %v (folded %s), the dead coordinator held %v (folded %s); err %v",
			victim, recovered.HealthScore(), recovered.HealthAt, before.HealthScore(), before.HealthAt, err)
	}
	// One interval: every agent beats once, is asked to re-register, and
	// does.
	h.Clock.Advance(chaosHeartbeat)
	vs = append(vs, h.ExtraChecks()...)
	for _, v := range vs {
		t.Errorf("violation across the coordinator crash: %s", v)
	}
	rejoined := false
	for _, ev := range h.Trace.Events() {
		rejoined = rejoined || (ev.Kind == obs.KindNodeRegistered && ev.Node == victim && ev.Time.After(crashAt))
	}
	if !rejoined {
		t.Fatalf("victim %s never re-registered with the successor", victim)
	}
	if after, err := h.currentStore().GetNode(victim); err != nil || after.HealthScore() >= monitor.UnhealthyBelow {
		t.Fatalf("victim %s re-joined at health %v (folded %s), the dead coordinator held %v (folded %s); err %v",
			victim, after.HealthScore(), after.HealthAt, before.HealthScore(), before.HealthAt, err)
	}
}

// TestGraySabotageRegistrationLaundering: a registration that left a
// node below the threshold with a different score than it found must
// trip the tap's no-placement-on-unhealthy audit; one that kept the
// score must not.
func TestGraySabotageRegistrationLaundering(t *testing.T) {
	h, err := newChaosHarness(ChaosConfig{Defs: PaperCampus(), Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	store := h.currentStore()
	was, err := store.GetNode(h.nodeIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	was.Health, was.HealthAt = 0.1, Epoch
	store.UpsertNode(was)
	h.checkHealthKept(was)
	if vs := h.ExtraChecks(); len(vs) != 0 {
		t.Fatalf("a registration that kept the score was flagged: %v", vs)
	}
	rebuilt := was
	rebuilt.Health, rebuilt.HealthAt = 0, time.Time{}
	store.UpsertNode(rebuilt)
	h.checkHealthKept(was)
	vs := h.ExtraChecks()
	if len(vs) != 1 || vs[0].Rule != "no-placement-on-unhealthy" {
		t.Fatalf("a laundered score was not flagged: %v", vs)
	}
}

// TestGraySabotageHealthDeltas: a health fold whose persisted score is
// not the deterministic refold of its carried events must trip
// health-score-consistent; an honest fold must not.
func TestGraySabotageHealthDeltas(t *testing.T) {
	now := Epoch
	events := []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical}}

	honest := func(s db.Store) {
		s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive, HealthAt: now})
		s.RecordHealth("ws-1", now.Add(time.Minute), events, func(prev float64, prevAt time.Time) float64 {
			return monitor.FoldHealth(prev, prevAt, now.Add(time.Minute), events)
		})
	}
	lying := func(s db.Store) {
		s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive, HealthAt: now})
		s.RecordHealth("ws-1", now.Add(time.Minute), events, func(prev float64, prevAt time.Time) float64 {
			return 0.99 // double-count / dropped-event stand-in: not the fold
		})
	}

	for name, tc := range map[string]struct {
		wreck func(db.Store)
		dirty bool
	}{"honest-fold": {honest, false}, "forged-score": {lying, true}} {
		t.Run(name, func(t *testing.T) {
			s := db.New(0)
			audit, cancel := invariant.NewHealthAudit(s)
			defer cancel()
			tc.wreck(s)
			vs := audit.Check(s)
			found := false
			for _, v := range vs {
				if v.Rule == "health-score-consistent" {
					found = true
				}
			}
			if found != tc.dirty {
				t.Fatalf("dirty=%v but violations=%v", tc.dirty, vs)
			}
		})
	}
}

// TestGraySabotagePlacementOnUnhealthy: a running job placed after its
// node's health dropped below the threshold must trip
// no-placement-on-unhealthy; one placed before the drop must not.
func TestGraySabotagePlacementOnUnhealthy(t *testing.T) {
	s := db.New(0)
	droppedAt := Epoch.Add(time.Hour)
	s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive,
		Health: 0.2, HealthAt: droppedAt})
	_ = s.InsertJob(db.JobRecord{ID: "old", State: db.JobRunning, NodeID: "ws-1",
		ImageName: "img", PlacedAt: droppedAt.Add(-time.Minute)})
	if vs := invariant.CheckNoPlacementOnUnhealthy(s); len(vs) != 0 {
		t.Fatalf("pre-drop placement flagged: %v", vs)
	}
	_ = s.InsertJob(db.JobRecord{ID: "new", State: db.JobRunning, NodeID: "ws-1",
		ImageName: "img", PlacedAt: droppedAt.Add(time.Minute)})
	vs := invariant.CheckNoPlacementOnUnhealthy(s)
	if len(vs) != 1 || vs[0].Rule != "no-placement-on-unhealthy" {
		t.Fatalf("post-drop placement not flagged: %v", vs)
	}
}

// TestGraySabotageDegradedDrained: a job left running on a long-
// unhealthy node while a feasible free device exists elsewhere must
// trip degraded-node-drained — and must not when there is no spare
// capacity, or when the crossing is too recent.
func TestGraySabotageDegradedDrained(t *testing.T) {
	now := Epoch.Add(2 * time.Hour)
	since := map[string]time.Time{"ws-1": Epoch}
	grace := 10 * time.Minute
	build := func(spareFree bool) db.Store {
		s := db.New(0)
		s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive,
			Health: 0.2, HealthAt: now})
		s.UpsertNode(db.NodeRecord{ID: "ws-2", Status: db.NodeActive, GPUs: []db.GPUInfo{{
			DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6,
		}}})
		_ = s.InsertJob(db.JobRecord{ID: "stuck", State: db.JobRunning, NodeID: "ws-1",
			ImageName: "img", GPUMemMiB: 8192, CapabilityMajor: 7, PlacedAt: Epoch})
		if !spareFree {
			_ = s.InsertJob(db.JobRecord{ID: "busy", State: db.JobRunning, NodeID: "ws-2",
				DeviceID: "gpu0", ImageName: "img", GPUMemMiB: 8192, PlacedAt: Epoch})
		}
		return s
	}

	vs := invariant.CheckDegradedDrained(build(true), since, now, grace)
	if len(vs) != 1 || vs[0].Rule != "degraded-node-drained" {
		t.Fatalf("undrained job not flagged: %v", vs)
	}
	if vs := invariant.CheckDegradedDrained(build(false), since, now, grace); len(vs) != 0 {
		t.Fatalf("no spare capacity, yet flagged: %v", vs)
	}
	fresh := map[string]time.Time{"ws-1": now.Add(-time.Minute)}
	if vs := invariant.CheckDegradedDrained(build(true), fresh, now, grace); len(vs) != 0 {
		t.Fatalf("crossing inside the grace, yet flagged: %v", vs)
	}
}
