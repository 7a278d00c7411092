package invariant

import (
	"strings"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

// aggStore builds a one-node store whose seed heartbeat the audit must
// treat as acknowledged (pre-attach state is not fabrication).
func aggStore() (db.Store, *AggAudit, func()) {
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: t0})
	a, cancel := NewAggAudit(s)
	return s, a, cancel
}

func wantAggViolation(t *testing.T, vs []Violation, substr string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == "aggregation-equivalence" && strings.Contains(v.Detail, substr) {
			return
		}
	}
	t.Fatalf("no aggregation-equivalence violation containing %q in %v", substr, vs)
}

func TestAggAuditCleanRoundTrip(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	beat := t0.Add(10 * time.Second)
	a.ObserveAck("n1", beat, 0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: beat})
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("clean round trip flagged: %v", vs)
	}
}

func TestAggAuditSeedHeartbeatNotFabrication(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	// No acks at all: the store still sits on its pre-attach seed.
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("seed state flagged: %v", vs)
	}
}

func TestAggAuditFabricatedAdvance(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	// The store lands on an instant no acknowledged beat ever carried.
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: t0.Add(37 * time.Second)})
	wantAggViolation(t, a.Check(s, time.Minute), "fabricated advance")
}

func TestAggAuditDroppedLiveness(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	a.ObserveAck("n1", t0.Add(5*time.Minute), 0)
	// Store never advanced past the seed: beyond tolerance for a live node.
	wantAggViolation(t, a.Check(s, time.Minute), "dropped liveness")
	// Within tolerance the same gap is legitimate bounded lag.
	if vs := a.Check(s, 10*time.Minute); len(vs) != 0 {
		t.Fatalf("in-tolerance lag flagged: %v", vs)
	}
}

func TestAggAuditDepartedNodeExcludedFromLag(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	a.ObserveAck("n1", t0.Add(5*time.Minute), 0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeDeparted, LastHeartbeat: t0})
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("departed node's frozen timestamp flagged: %v", vs)
	}
	// Unreachable nodes stay covered — starving the failure detector is
	// the most damaging form of dropped liveness.
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeUnreachable, LastHeartbeat: t0})
	wantAggViolation(t, a.Check(s, time.Minute), "dropped liveness")
}

func TestAggAuditUnacknowledgedNode(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	s.UpsertNode(db.NodeRecord{ID: "ghost", Status: db.NodeActive, LastHeartbeat: t0})
	wantAggViolation(t, a.Check(s, time.Minute), "no beat or registration was ever acknowledged")
}

func TestAggAuditRegisterSeedsAckedSet(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	at := t0.Add(time.Second)
	a.ObserveRegister("n2", at)
	s.UpsertNode(db.NodeRecord{ID: "n2", Status: db.NodeActive, LastHeartbeat: at})
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("registration-seeded node flagged: %v", vs)
	}
}

func TestAggAuditHealthCompleteness(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	beat := t0.Add(10 * time.Second)
	events := []gpu.HealthEvent{
		{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, Value: 96},
		{Kind: gpu.HealthXIDRecoverable, Severity: gpu.SeverityWarn, XID: 31},
	}
	a.ObserveAck("n1", beat, len(events))
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: beat})
	// Only one of the two acknowledged events reaches the store.
	s.RecordHealth("n1", beat, events[:1], func(prev float64, prevAt time.Time) float64 { return 0.5 })
	wantAggViolation(t, a.Check(s, time.Minute), "dropped health")
	// Folding the rest clears it; extra folds (at-least-once residue) stay clean.
	s.RecordHealth("n1", beat.Add(time.Second), events, func(prev float64, prevAt time.Time) float64 { return 0.4 })
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("complete health fold flagged: %v", vs)
	}
}

func TestAggAuditEpochRegressionAndReplay(t *testing.T) {
	s, a, cancel := aggStore()
	defer cancel()
	a.ObserveAggEpoch("agg-1", 3)
	a.ObserveAggEpoch("agg-1", 2) // learned epochs only ratchet up
	a.ObserveForward("agg-1", 3, 1)
	a.ObserveForward("agg-1", 3, 2)
	if vs := a.Check(s, time.Minute); len(vs) != 0 {
		t.Fatalf("monotone forwards flagged: %v", vs)
	}
	a.ObserveForward("agg-1", 2, 3) // fenced below the learned epoch
	a.ObserveForward("agg-1", 3, 2) // window sequence reused
	vs := a.Check(s, time.Minute)
	wantAggViolation(t, vs, "epoch 2 after learning epoch 3")
	wantAggViolation(t, vs, "replayed window 2")
}

func TestAggAuditAttachSuccessorStore(t *testing.T) {
	s, a, cancel := aggStore()
	cancel() // failover: the old store's subscription is gone
	succ := db.New(0)
	succ.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: t0})
	defer a.Watch(succ)()
	beat := t0.Add(10 * time.Second)
	events := []gpu.HealthEvent{{Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical, XID: 79}}
	a.ObserveAck("n1", beat, 1)
	succ.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: beat})
	// The fold lands on the successor; the audit must count it there.
	succ.RecordHealth("n1", beat, events, func(prev float64, prevAt time.Time) float64 { return 0.3 })
	if vs := a.Check(succ, time.Minute); len(vs) != 0 {
		t.Fatalf("successor-store fold flagged: %v", vs)
	}
	_ = s
}
