package core

import (
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/monitor"
)

func warnThermal() gpu.HealthEvent {
	return gpu.HealthEvent{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn, Value: 88}
}

// TestHealthBeatBypassesCoalescing: a beat carrying health events is
// not a no-op and must not park in the coalescing buffer — the fold
// has to commit at the beat's own instant (the predictive drain hangs
// off the crossing), not a quarter-interval later at the flush tick.
func TestHealthBeatBypassesCoalescing(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	lg := &mutationLog{}
	cancel := store.AddMutationObserver(lg.observe)
	defer cancel()

	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	req.HealthEvents = []gpu.HealthEvent{warnThermal()}
	beatAt := b.clock.Now()
	if resp, err := b.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("health beat = %+v, %v", resp, err)
	}

	// Committed immediately, on the full-image path: the heartbeat
	// advance and the health fold are both in the store before any
	// flush tick, and nothing sits in the buffer.
	rec, _ := store.GetNode("n1")
	if !rec.LastHeartbeat.Equal(beatAt) {
		t.Fatalf("health beat buffered: LastHeartbeat %s, want %s", rec.LastHeartbeat, beatAt)
	}
	if !rec.HealthAt.Equal(beatAt) || rec.HealthScore() >= 1 {
		t.Fatalf("health fold not committed at the beat instant: score %v at %s",
			rec.HealthScore(), rec.HealthAt)
	}
	if folds := lg.byType(db.MutNodeHealth); len(folds) != 1 || len(folds[0].Health.Events) != 1 {
		t.Fatalf("want one MutNodeHealth carrying one event, got %+v", folds)
	}
	if _, buffered := guardEntries(b.coord); len(buffered) != 0 {
		t.Fatalf("health-carrying beat also buffered: %v", buffered)
	}
}

// TestReplayedHealthBeatNotDoubleFolded: a replayed beat carrying the
// same health events must be swallowed whole by the dedup guard — no
// second fold, no store write of any kind — or every retried packet
// would push the node toward unhealthy twice.
func TestReplayedHealthBeatNotDoubleFolded(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	audit, cancel := invariant.NewHealthAudit(store)
	defer cancel()

	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	req.HealthEvents = []gpu.HealthEvent{warnThermal(), warnThermal()}
	if resp, err := b.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("original = %+v, %v", resp, err)
	}
	rec, _ := store.GetNode("n1")
	scoreAfterOne := rec.HealthScore()
	lsnBefore := store.CurrentLSN()

	for i := 0; i < 3; i++ {
		resp, err := b.coord.Heartbeat(req)
		if err != nil || !resp.Acknowledged {
			t.Fatalf("replay %d = %+v, %v", i, resp, err)
		}
	}
	if lsn := store.CurrentLSN(); lsn != lsnBefore {
		t.Fatalf("replays mutated the store: LSN %d -> %d", lsnBefore, lsn)
	}
	rec, _ = store.GetNode("n1")
	if rec.HealthScore() != scoreAfterOne {
		t.Fatalf("replays re-folded health: %v -> %v", scoreAfterOne, rec.HealthScore())
	}
	if vs := audit.Check(store); len(vs) != 0 {
		t.Fatalf("health fold diverged after replays: %v", vs)
	}
}

// TestHealthEventsTruncatedPerBeat: a beat stuffed past the protocol
// bound folds only the first MaxHealthEventsPerBeat events — the cap
// is the coordinator's defense against a babbling agent.
func TestHealthEventsTruncatedPerBeat(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	lg := &mutationLog{}
	cancel := store.AddMutationObserver(lg.observe)
	defer cancel()

	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	for i := 0; i < api.MaxHealthEventsPerBeat+8; i++ {
		req.HealthEvents = append(req.HealthEvents, gpu.HealthEvent{
			Kind: gpu.HealthThermal, Severity: gpu.SeverityInfo,
		})
	}
	if resp, err := b.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("beat = %+v, %v", resp, err)
	}
	folds := lg.byType(db.MutNodeHealth)
	if len(folds) != 1 || len(folds[0].Health.Events) != api.MaxHealthEventsPerBeat {
		got := -1
		if len(folds) == 1 {
			got = len(folds[0].Health.Events)
		}
		t.Fatalf("fold carries %d events, want the %d cap", got, api.MaxHealthEventsPerBeat)
	}
}

// TestReregisterKeepsHealthScore: a re-registration rebuilds the node
// record from the request, and must carry the health score over like
// the rest of the node's standing — after a coordinator restart or
// failover every agent is told to re-register, and an unhealthy node
// must stay excluded from placement.
func TestReregisterKeepsHealthScore(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	critical := gpu.HealthEvent{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, Value: 97}
	for i := 0; i < 6; i++ {
		b.clock.Advance(10 * time.Second)
		req := b.beatReq("n1")
		req.HealthEvents = []gpu.HealthEvent{critical}
		if resp, err := b.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
			t.Fatalf("health beat %d = %+v, %v", i, resp, err)
		}
	}
	before, _ := store.GetNode("n1")
	if before.HealthScore() >= monitor.UnhealthyBelow {
		t.Fatalf("six critical beats left the node at %v", before.HealthScore())
	}

	b.clock.Advance(10 * time.Second)
	if _, err := b.coord.Register(b.ags["n1"].RegisterRequest("inproc://n1", 1<<30), handleOf(b.ags["n1"])); err != nil {
		t.Fatal(err)
	}
	after, _ := store.GetNode("n1")
	if after.Health != before.Health || !after.HealthAt.Equal(before.HealthAt) {
		t.Fatalf("re-registration moved the health score: %v at %s -> %v at %s",
			before.HealthScore(), before.HealthAt, after.HealthScore(), after.HealthAt)
	}
}
