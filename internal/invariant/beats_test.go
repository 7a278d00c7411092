package invariant

import (
	"testing"
	"time"

	"gpunion/internal/db"
)

// TestBeatAuditLiveStore drives a real store through the audit: full
// images, coalesced beat batches and an interleaved UpdateNode must
// fold exactly onto the store's final heartbeats.
func TestBeatAuditLiveStore(t *testing.T) {
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive, LastHeartbeat: t0})
	audit, cancel := NewBeatAudit(s)
	defer cancel()
	s.UpsertNode(db.NodeRecord{ID: "n2", Status: db.NodeActive, LastHeartbeat: t0})
	s.TouchNodes([]db.BeatDelta{
		{NodeID: "n1", At: t0.Add(10 * time.Second)},
		{NodeID: "n2", At: t0.Add(10 * time.Second)},
	})
	if err := s.UpdateNode("n1", func(n *db.NodeRecord) {
		n.LastHeartbeat = t0.Add(20 * time.Second)
		n.Status = db.NodePaused
	}); err != nil {
		t.Fatal(err)
	}
	// A stale batch: the store must drop the non-advancing delta and
	// log only the one that moved (n2), keeping the fold exact.
	s.TouchNodes([]db.BeatDelta{
		{NodeID: "n1", At: t0.Add(15 * time.Second)},
		{NodeID: "n2", At: t0.Add(25 * time.Second)},
	})
	if vs := audit.Check(s); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

// TestBeatDeltasLostAdvance sabotages the stream by dropping a delta
// the store committed: the fold lands behind the store and the rule
// must fire.
func TestBeatDeltasLostAdvance(t *testing.T) {
	base := map[string]time.Time{"n1": t0}
	nodes := []db.NodeRecord{{ID: "n1", LastHeartbeat: t0.Add(time.Minute)}}
	vs := beatRule.fold(base, nil, nodes)
	wantRule(t, vs, "beat-delta-equivalence")
}

// TestBeatDeltasFabricatedAdvance sabotages the other direction: the
// stream carries an advance the store never applied.
func TestBeatDeltasFabricatedAdvance(t *testing.T) {
	base := map[string]time.Time{"n1": t0}
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat,
		Beats: []db.BeatDelta{{NodeID: "n1", At: t0.Add(time.Minute)}}}}
	nodes := []db.NodeRecord{{ID: "n1", LastHeartbeat: t0}}
	vs := beatRule.fold(base, muts, nodes)
	wantRule(t, vs, "beat-delta-equivalence")
}

// TestBeatDeltasRecordDiscipline: a logged delta that does not advance
// the folded timestamp means the store's kept-filter broke (a replay
// was applied twice, or a stale delta was committed).
func TestBeatDeltasRecordDiscipline(t *testing.T) {
	base := map[string]time.Time{"n1": t0}
	at := t0.Add(time.Minute)
	muts := []db.Mutation{
		{LSN: 1, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: at}}},
		{LSN: 2, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: at}}},
	}
	nodes := []db.NodeRecord{{ID: "n1", LastHeartbeat: at}}
	vs := beatRule.fold(base, muts, nodes)
	wantRule(t, vs, "beat-delta-equivalence")
}

// TestBeatDeltasUnknownNode: a delta must never target a node the
// stream has not installed.
func TestBeatDeltasUnknownNode(t *testing.T) {
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat,
		Beats: []db.BeatDelta{{NodeID: "ghost", At: t0}}}}
	vs := beatRule.fold(nil, muts, nil)
	wantRule(t, vs, "beat-delta-equivalence")
}

// TestBeatDeltasEmptyRecord: an empty beat record is a malformed frame.
func TestBeatDeltasEmptyRecord(t *testing.T) {
	muts := []db.Mutation{{LSN: 1, Type: db.MutBeat}}
	vs := beatRule.fold(nil, muts, nil)
	wantRule(t, vs, "beat-delta-equivalence")
}

// TestBeatDeltasImageResets: a full after-image re-bases the fold — a
// later beat only needs to advance past the image, not past every
// earlier delta.
func TestBeatDeltasImageResets(t *testing.T) {
	base := map[string]time.Time{"n1": t0.Add(time.Hour)}
	muts := []db.Mutation{
		{LSN: 5, Type: db.MutNodePut, Node: &db.NodeRecord{ID: "n1", LastHeartbeat: t0}},
		{LSN: 6, Type: db.MutBeat, Beats: []db.BeatDelta{{NodeID: "n1", At: t0.Add(time.Second)}}},
	}
	nodes := []db.NodeRecord{{ID: "n1", LastHeartbeat: t0.Add(time.Second)}}
	if vs := beatRule.fold(base, muts, nodes); len(vs) != 0 {
		t.Fatalf("re-based fold flagged: %v", vs)
	}
}
