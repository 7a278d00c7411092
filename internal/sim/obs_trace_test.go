package sim

import (
	"testing"
	"time"

	"gpunion/internal/chaos"
	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
)

// traceChaosConfig is a short, fault-dense run used by the trace
// tests: enough churn and partitions to land fault annotations without
// burning a full campus day.
func traceChaosConfig(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed: seed,
		Spec: chaos.Spec{
			Duration:           2 * time.Hour,
			ChurnPerNodePerDay: 8,
			PartitionsPerDay:   10,
		},
		Jobs:       8,
		AuditEvery: 10 * time.Minute,
		Drain:      30 * time.Minute,
	}
}

// TestChaosTraceDeterminism: the same seed must export the same trace
// in every process. The flight recorder rides the single-driver
// simulation, so a violation's trace from CI replays exactly on a
// laptop — the same guarantee TestChaosDeterministicSchedule gives for
// the fault schedule, extended to the full recorded timeline. The
// reference is the committed golden entry, not a second run in this
// process: two runs that share a process also share whatever
// per-process state could make them agree by accident.
func TestChaosTraceDeterminism(t *testing.T) {
	res, err := RunChaos(traceChaosConfig(goldenSeed))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations under trace run: %v", res.Violations)
	}
	if len(res.Trace) == 0 {
		t.Fatal("flight recorder captured nothing")
	}
	kinds := obs.Kinds(res.Trace)
	if kinds[obs.KindFaultInjected] == 0 {
		t.Fatalf("no fault annotations in trace: %v", kinds)
	}
	if kinds["job.submitted"] == 0 || kinds["job.completed"] == 0 {
		t.Fatalf("job lifecycle missing from trace: %v", kinds)
	}
	checkGoldenTrace(t, "trace-determinism", res)
}

// sabotagePlatform is a minimal chaos.Platform whose CrashNode breaks
// the store on purpose (a device double-allocation) instead of
// modelling a fault. It exists to prove the trace localizes the breach:
// the injected fault's annotation must precede the violation's.
type sabotagePlatform struct {
	store db.Store
}

func (p *sabotagePlatform) Store() db.Store { return p.store }

func (p *sabotagePlatform) CrashNode(string) {
	for _, id := range []string{"evil-a", "evil-b"} {
		_ = p.store.InsertJob(db.JobRecord{ID: id, State: db.JobRunning,
			NodeID: "ws-1", DeviceID: "gpu0", ImageName: "img"})
		p.store.RecordAllocation(db.AllocationRecord{JobID: id,
			NodeID: "ws-1", DeviceID: "gpu0", Start: Epoch})
	}
}

func (p *sabotagePlatform) DepartNode(string, bool)                 {}
func (p *sabotagePlatform) ReturnNode(string)                       {}
func (p *sabotagePlatform) PartitionStart([]string)                 {}
func (p *sabotagePlatform) PartitionHeal([]string)                  {}
func (p *sabotagePlatform) SetWALFault(chaos.WALFaultMode)          {}
func (p *sabotagePlatform) SetClockSkew(string, time.Duration)      {}
func (p *sabotagePlatform) SetDupDelivery(bool)                     {}
func (p *sabotagePlatform) DataPartitionStart([]string)             {}
func (p *sabotagePlatform) DataPartitionHeal([]string)              {}
func (p *sabotagePlatform) SetCheckpointFault(chaos.CkptFaultMode)  {}
func (p *sabotagePlatform) CrashCoordinator() []invariant.Violation { return nil }
func (p *sabotagePlatform) KillLeader() []invariant.Violation       { return nil }
func (p *sabotagePlatform) SplitBrainStart()                        {}
func (p *sabotagePlatform) SplitBrainHeal() []invariant.Violation   { return nil }
func (p *sabotagePlatform) GrayDegradeStart(string)                 {}
func (p *sabotagePlatform) GrayDegradeHeal(string)                  {}
func (p *sabotagePlatform) PartialLossStart(string)                 {}
func (p *sabotagePlatform) PartialLossHeal(string)                  {}
func (p *sabotagePlatform) SetCheckpointReadRot(bool)               {}
func (p *sabotagePlatform) ExtraChecks() []invariant.Violation      { return nil }

// TestChaosSabotageTraceLocalization: a deliberately broken invariant
// must show up in the trace export *after* the fault annotation that
// caused it — the fault-localization contract O&M debugging relies on.
func TestChaosSabotageTraceLocalization(t *testing.T) {
	clock := simclock.NewSim(Epoch)
	plat := &sabotagePlatform{store: db.New(0)}
	rec := obs.NewRecorder(clock, 0)

	eng := chaos.NewEngine(clock, plat)
	eng.SetRecorder(rec)
	rep := eng.Execute(chaos.Schedule{
		{At: 10 * time.Minute, Kind: chaos.KindNodeCrash, Node: "ws-1"},
	}, 0, 5*time.Minute)
	if len(rep.Violations) == 0 {
		t.Fatal("sabotage produced no violations — the safety net is broken")
	}

	assertFaultLocalizes(t, rec.Events(), "device-double-allocation")
}

// assertFaultLocalizes checks the trace contract on a sabotage run: a
// node-crash fault annotation precedes the first violation annotation,
// and the named rule is among the violations annotated.
func assertFaultLocalizes(t *testing.T, events []obs.Event, rule string) {
	t.Helper()
	var fault, violation, named *obs.Event
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case obs.KindFaultInjected:
			if fault == nil {
				fault = ev
			}
		case obs.KindInvariantViolation:
			if violation == nil {
				violation = ev
			}
			if ev.Detail["rule"] == rule && named == nil {
				named = ev
			}
		}
	}
	if fault == nil {
		t.Fatalf("no fault annotation recorded: %v", obs.Kinds(events))
	}
	if violation == nil {
		t.Fatalf("no violation annotation recorded: %v", obs.Kinds(events))
	}
	if fault.Seq >= violation.Seq {
		t.Fatalf("fault (seq %d) does not precede violation (seq %d)",
			fault.Seq, violation.Seq)
	}
	if fault.Detail["kind"] != string(chaos.KindNodeCrash) {
		t.Errorf("fault annotation lost its kind: %v", fault.Detail)
	}
	if named == nil {
		t.Errorf("%s never annotated; first violation: %v", rule, violation.Detail)
	}
}

// frozenGenStore is a store whose node generation never moves: node
// installs go unannounced, which is exactly what the scheduler's
// candidate cache must never be exposed to.
type frozenGenStore struct{ db.Store }

func (frozenGenStore) NodeGeneration() uint64 { return 1 }

// staleCachePlatform sabotages the candidate cache's one rule: its
// CrashNode flips a device behind a frozen generation, and its
// ExtraChecks runs the same audit the chaos harness runs.
type staleCachePlatform struct {
	sabotagePlatform
	sched *scheduler.Scheduler
}

func (p *staleCachePlatform) CrashNode(node string) {
	_ = p.store.UpdateNode(node, func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
}

func (p *staleCachePlatform) ExtraChecks() []invariant.Violation {
	var vs []invariant.Violation
	for _, d := range p.sched.AuditCache(p.store) {
		vs = append(vs, invariant.Violation{Rule: "scheduler-pool-consistent", Detail: d})
	}
	return vs
}

// TestChaosSabotageTraceLocalizationStaleCache: with the node
// generation frozen, the first device flip leaves the scheduler's
// cached candidate set stale under a matching stamp;
// scheduler-pool-consistent must fire, after the fault that caused it.
func TestChaosSabotageTraceLocalizationStaleCache(t *testing.T) {
	clock := simclock.NewSim(Epoch)
	store := frozenGenStore{db.New(0)}
	store.UpsertNode(db.NodeRecord{ID: "ws-1", Status: db.NodeActive, RegisteredAt: Epoch,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}}})
	plat := &staleCachePlatform{
		sabotagePlatform: sabotagePlatform{store: store},
		sched:            scheduler.New(nil),
	}
	// One scheduling cycle stamps the cache at the frozen generation.
	plat.sched.Place([]scheduler.Request{{JobID: "probe"}}, store, Epoch)
	rec := obs.NewRecorder(clock, 0)

	eng := chaos.NewEngine(clock, plat)
	eng.SetRecorder(rec)
	rep := eng.Execute(chaos.Schedule{
		{At: 10 * time.Minute, Kind: chaos.KindNodeCrash, Node: "ws-1"},
	}, 0, 5*time.Minute)
	if len(rep.Violations) == 0 {
		t.Fatal("a stale candidate cache produced no violations — the safety net is broken")
	}
	assertFaultLocalizes(t, rec.Events(), "scheduler-pool-consistent")
}
