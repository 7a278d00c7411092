package sim

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gpunion/internal/chaos"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/workload"
)

// requireClean asserts a chaos run finished with zero invariant
// violations and actually did something.
func requireClean(t *testing.T, res ChaosResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		for i, v := range res.Violations {
			if i >= 10 {
				t.Errorf("… and %d more", len(res.Violations)-10)
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.FailNow()
	}
	if len(res.Schedule) == 0 {
		t.Fatal("schedule injected no faults")
	}
	if res.CompletedJobs == 0 {
		t.Error("no job completed under chaos — the platform did no useful work")
	}
	t.Logf("faults=%d audits=%d submitted=%d completed=%d recoveries=%d walFaults=%d",
		len(res.Schedule), res.Report.Audits, res.SubmittedJobs,
		res.CompletedJobs, res.Recoveries, res.WALFaultsInjected)
}

// TestChaosChurnScale: 400 nodes under paper-rate provider churn. The
// store, batch scheduler and migration machinery must hold
// every invariant while the fleet churns.
func TestChaosChurnScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 400-node fleet for hours of simulated time")
	}
	res, err := runGoldenSchedule("churn@400")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindNodeCrash]+res.Report.Executed[chaos.KindNodeDepart] < 20 {
		t.Errorf("churn schedule too thin: %v", res.Report.Executed)
	}
}

// TestChaosPartitionCrash: control-plane partitions past the missed-
// heartbeat threshold (emergency migration + split-brain orphans) plus
// coordinator kill/restart mid-migration on a WAL-backed store.
func TestChaosPartitionCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL fsyncs")
	}
	res, err := runGoldenSchedule("partition+coord-crash")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindPartition] == 0 {
		t.Errorf("no partitions executed: %v", res.Report.Executed)
	}
	if res.Recoveries == 0 {
		t.Error("no coordinator kill/restart executed")
	}
}

// TestChaosCrashedNodeRebootsAsItself: a crash discards the node's
// agent with everything in its memory, and a return boots a fresh agent
// under the same identity, which registers again, numbers its beats
// from one, and finds the node's record still there, the crash counted
// as one departure.
func TestChaosCrashedNodeRebootsAsItself(t *testing.T) {
	cfg := ChaosConfig{Defs: PaperCampus(), Jobs: 2, HeartbeatInterval: time.Minute, ProgressTick: time.Minute}
	h, err := newChaosHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	h.startTraffic(1)
	h.clock.Advance(10 * time.Minute)

	id := h.nodeIDs[0]
	old := h.agent(id)
	if seq := old.HeartbeatRequest().BeatSeq; seq < 10 {
		t.Fatalf("the agent built %d beats in ten intervals", seq)
	}
	h.CrashNode(id)
	if h.agent(id) != nil || !h.silenced(id) {
		t.Fatal("a crashed node still has a running agent")
	}
	h.clock.Advance(10 * time.Minute)
	if rec, err := h.currentStore().GetNode(id); err != nil || rec.Status != db.NodeUnreachable {
		t.Fatalf("crashed node = %+v, %v; want it marked unreachable", rec, err)
	}

	returnedAt := h.clock.Now()
	h.ReturnNode(id)
	fresh := h.agent(id)
	if fresh == nil || fresh == old || fresh.MachineID() != id {
		t.Fatalf("after the return the node runs %p (was %p)", fresh, old)
	}
	registered := false
	for _, ev := range h.trace.Events() {
		registered = registered || (ev.Kind == obs.KindNodeRegistered && ev.Node == id && !ev.Time.Before(returnedAt))
	}
	if !registered || fresh.Token() == "" {
		t.Fatal("the rebooted agent did not register")
	}
	h.clock.Advance(cfg.HeartbeatInterval)
	if seq := fresh.HeartbeatRequest().BeatSeq; seq != 2 {
		t.Fatalf("one interval after the reboot the next beat is #%d, want #2", seq)
	}
	rec, err := h.currentStore().GetNode(id)
	if err != nil || rec.Status != db.NodeActive || rec.Departures != 1 {
		t.Fatalf("rebooted node = %+v, %v; want it active with one departure", rec, err)
	}
	for _, v := range h.ExtraChecks() {
		t.Errorf("violation across the reboot: %s", v)
	}
}

// TestChaosWALFaults: fsync-error and torn-write windows under live
// traffic, then recovery from the damaged log. The poisoned-segment
// rotation must keep every acknowledged record durable.
func TestChaosWALFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL fsyncs")
	}
	res, err := runGoldenSchedule("wal-disk-faults")
	requireClean(t, res, err)
	if res.WALFaultsInjected == 0 {
		t.Error("no disk faults were actually delivered")
	}
	if res.Recoveries == 0 {
		t.Error("no recovery exercised the damaged log")
	}
}

// TestChaosSkewDup: per-node clock skew plus duplicate delivery of
// heartbeats, job updates and launches, under churn. Every replay is
// verified side-effect free and skewed-but-healthy nodes must stay in
// service.
func TestChaosSkewDup(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day of simulated time")
	}
	res, err := runGoldenSchedule("skew+dup-delivery")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindClockSkew] == 0 {
		t.Errorf("no clock skew injected: %v", res.Report.Executed)
	}
	if res.Report.Executed[chaos.KindDupDeliver] == 0 {
		t.Errorf("no duplicate-delivery window opened: %v", res.Report.Executed)
	}
	for _, kind := range []string{"heartbeat", "job-update", "launch"} {
		if res.DupReplaysDelivered[kind] == 0 {
			t.Errorf("duplicate windows opened but no %s was actually replayed", kind)
		}
	}
	t.Logf("skews=%d dupWindows=%d replays=%v",
		res.Report.Executed[chaos.KindClockSkew],
		res.Report.Executed[chaos.KindDupDeliver], res.DupReplaysDelivered)
}

// TestChaosDataPlane: partitions that sever checkpoint transfers along
// with the control path, plus silent checkpoint-store corruption and a
// coordinator crash. The CRC frames must catch every damaged blob and
// restores must fall back to the previous intact generation.
func TestChaosDataPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full campus day with WAL fsyncs")
	}
	res, err := runGoldenSchedule("data-plane+ckpt-corrupt")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindDataPartition] == 0 {
		t.Errorf("no data-plane partition executed: %v", res.Report.Executed)
	}
	if res.CkptFaultsInjected == 0 {
		t.Error("no checkpoint blobs were actually damaged")
	}
	if res.CkptCorruptionsDetected == 0 {
		t.Error("damage was injected but the CRC detector never fired")
	}
	t.Logf("ckptFaults=%d detected=%d", res.CkptFaultsInjected, res.CkptCorruptionsDetected)
}

// TestChaosDeterministicSchedule: the same seed must produce the same
// fault schedule — a violation found in CI is replayable locally.
func TestChaosDeterministicSchedule(t *testing.T) {
	spec := chaos.Spec{
		Duration:           4 * time.Hour,
		Nodes:              []string{"a", "b", "c"},
		ChurnPerNodePerDay: 8,
		PartitionsPerDay:   12,
		CoordCrashes:       1,
	}
	a := chaos.Generate(spec, 7)
	b := chaos.Generate(spec, 7)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("schedules differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Node != b[i].Node {
			t.Fatalf("schedule diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChaosSabotageDetection: deliberately corrupt the store mid-run
// and prove the checker catches it — the acceptance test for the
// safety net itself. Each sabotage breaks a different invariant.
func TestChaosSabotageDetection(t *testing.T) {
	sabotages := []struct {
		rule  string
		wreck func(s db.Store)
	}{
		{"device-double-allocation", func(s db.Store) {
			_ = s.InsertJob(db.JobRecord{ID: "evil-dup", State: db.JobRunning,
				NodeID: "ws-1", DeviceID: "gpu0", ImageName: "img"})
			s.RecordAllocation(db.AllocationRecord{JobID: "evil-dup",
				NodeID: "ws-1", DeviceID: "gpu0", Start: Epoch})
		}},
		{"running-node-live", func(s db.Store) {
			_ = s.UpdateNode("ws-1", func(n *db.NodeRecord) { n.Status = db.NodeDeparted })
		}},
		{"alloc-matches-job", func(s db.Store) {
			for _, j := range s.JobsInState(db.JobRunning) {
				_ = s.UpdateJob(j.ID, func(r *db.JobRecord) { r.State = db.JobCompleted })
				return
			}
		}},
		{"pending-detached", func(s db.Store) {
			_ = s.InsertJob(db.JobRecord{ID: "evil-pend", State: db.JobPending,
				NodeID: "ws-2", ImageName: "img"})
		}},
	}
	runSabotages(t, sabotages, func(s db.Store) db.Store { return s })
}

// driftingStore simulates a store whose materialized indexes have
// drifted from the record maps: the indexed queries misreport while
// the ground-truth scans stay honest. The index-consistent invariant
// must catch exactly this.
type driftingStore struct {
	db.Store
}

func (d driftingStore) JobsInState(state db.JobState) []db.JobRecord {
	out := d.Store.JobsInState(state)
	if len(out) > 0 {
		return out[:len(out)-1] // the index "lost" a record
	}
	return out
}

func (d driftingStore) JobsOnNode(nodeID string) []db.JobRecord {
	return nil // the placement index "lost" every membership
}

// AuditIndexes masks the inner store's deep audit — the drift modelled
// here lives in the query results, which the scan-equivalence side of
// the invariant must catch on its own.
func (d driftingStore) AuditIndexes() []string { return nil }

// brokenChainSource models a checkpoint store whose fallback logic let
// damage through: it hands out chains that violate the structural
// contract. CheckCheckpoints must reject every one of them.
type brokenChainSource struct {
	chain []checkpoint.Checkpoint
	err   error
}

func (b brokenChainSource) RestoreChain(string) ([]checkpoint.Checkpoint, error) {
	return b.chain, b.err
}

// TestChaosSabotageCheckpointIntegrity: structurally broken restore
// chains — an incremental head, an unlinked base, regressing progress,
// a foreign job's link — must each trip checkpoint-integrity.
func TestChaosSabotageCheckpointIntegrity(t *testing.T) {
	jobs := []db.JobRecord{{ID: "j1", State: db.JobRunning}}
	cases := map[string]invariant.CheckpointSource{
		"head-is-increment": brokenChainSource{chain: []checkpoint.Checkpoint{
			{JobID: "j1", Seq: 2, Incremental: true, BaseSeq: 1},
		}},
		"unlinked-base": brokenChainSource{chain: []checkpoint.Checkpoint{
			{JobID: "j1", Seq: 1},
			{JobID: "j1", Seq: 3, Incremental: true, BaseSeq: 2},
		}},
		"progress-regression": brokenChainSource{chain: []checkpoint.Checkpoint{
			{JobID: "j1", Seq: 1, Progress: checkpoint.Progress{Step: 100}},
			{JobID: "j1", Seq: 2, Incremental: true, BaseSeq: 1, Progress: checkpoint.Progress{Step: 50}},
		}},
		"foreign-job-link": brokenChainSource{chain: []checkpoint.Checkpoint{
			{JobID: "j2", Seq: 1},
		}},
		"unresolvable": brokenChainSource{err: errors.New("backing store exploded")},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			vs := invariant.CheckCheckpoints(src, jobs)
			if len(vs) == 0 {
				t.Fatal("broken chain went undetected")
			}
			for _, v := range vs {
				if v.Rule != "checkpoint-integrity" {
					t.Fatalf("unexpected rule %s", v.Rule)
				}
			}
		})
	}
	// And the legitimate cases stay silent: no checkpoints at all, or
	// checkpoints that survived nothing restorable.
	for _, err := range []error{checkpoint.ErrNoCheckpoint, checkpoint.ErrBadChain} {
		if vs := invariant.CheckCheckpoints(brokenChainSource{err: fmt.Errorf("wrap: %w", err)}, jobs); len(vs) != 0 {
			t.Fatalf("legitimate %v flagged: %v", err, vs)
		}
	}
}

// TestChaosSabotageSkewLiveness: a node whose only fault is clock skew
// but whose record dropped out of service must trip
// skew-bounded-liveness.
func TestChaosSabotageSkewLiveness(t *testing.T) {
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive})
	s.UpsertNode(db.NodeRecord{ID: "ws-2", Status: db.NodeUnreachable})
	if vs := invariant.CheckSkewLiveness(s, []string{"ws-1"}); len(vs) != 0 {
		t.Fatalf("healthy skewed node flagged: %v", vs)
	}
	vs := invariant.CheckSkewLiveness(s, []string{"ws-1", "ws-2", "ghost"})
	if len(vs) != 2 {
		t.Fatalf("want 2 violations (unreachable + unknown), got %v", vs)
	}
	for _, v := range vs {
		if v.Rule != "skew-bounded-liveness" {
			t.Fatalf("unexpected rule %s", v.Rule)
		}
	}
}

// TestChaosSabotageDuplicateSideEffects: a replay that mutates the
// store must trip no-duplicate-side-effects; a no-op replay must not.
func TestChaosSabotageDuplicateSideEffects(t *testing.T) {
	s := db.New(0)
	if vs := chaos.VerifyIdempotent(s, "clean", func() {}); len(vs) != 0 {
		t.Fatalf("side-effect-free replay flagged: %v", vs)
	}
	vs := chaos.VerifyIdempotent(s, "dirty", func() {
		s.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive})
	})
	if len(vs) != 1 || vs[0].Rule != "no-duplicate-side-effects" {
		t.Fatalf("mutating replay not flagged: %v", vs)
	}
}

// TestChaosSabotageIndexDrift: an index that diverges from the record
// scan must trip the index-consistent rule.
func TestChaosSabotageIndexDrift(t *testing.T) {
	runSabotages(t, []struct {
		rule  string
		wreck func(s db.Store)
	}{
		{"index-consistent", func(db.Store) {}},
	}, func(s db.Store) db.Store { return driftingStore{s} })
}

// runSabotages drives a healthy campus, applies each sabotage, and
// asserts the checker reports the expected rule. view wraps the store
// the checker audits (identity for direct state corruption; a lying
// wrapper for index-drift modelling).
func runSabotages(t *testing.T, sabotages []struct {
	rule  string
	wreck func(s db.Store)
}, view func(db.Store) db.Store) {
	for _, sab := range sabotages {
		t.Run(sab.rule, func(t *testing.T) {
			campus, err := NewCampus(PaperCampus(), CampusConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer campus.Stop()
			for i := 0; i < 4; i++ {
				if _, err := campus.Coord.SubmitJob(
					TrainingJobSubmission("user", workload.SmallCNN, 10*time.Minute)); err != nil {
					t.Fatal(err)
				}
			}
			campus.Run(30 * time.Minute)

			checker := invariant.NewChecker()
			if vs := checker.Check(campus.Coord.DB()); len(vs) != 0 {
				t.Fatalf("campus unhealthy before sabotage: %v", vs)
			}
			sab.wreck(campus.Coord.DB())
			vs := checker.Check(view(campus.Coord.DB()))
			found := false
			for _, v := range vs {
				if v.Rule == sab.rule {
					found = true
				}
			}
			if !found {
				t.Fatalf("sabotage of %s went undetected (got %v)", sab.rule, vs)
			}
		})
	}
}
