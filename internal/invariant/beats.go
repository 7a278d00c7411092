package invariant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gpunion/internal/db"
)

// Beat-delta equivalence: coalescing heartbeats into compact MutBeat
// records must lose no advance and invent none. The audit folds the
// committed mutation stream — full node after-images plus beat deltas,
// in LSN order — over the heartbeat timestamps the store held when
// recording began, and requires the fold to land exactly on the
// LastHeartbeat every node record ends at. A delta the coalescer
// dropped, a delta it fabricated, or a replay that applied one twice
// all surface as a divergence here.

// CheckBeatDeltas audits beat-delta equivalence. base holds each
// node's LastHeartbeat when the stream began; muts is the committed
// mutation stream since then (types other than node images and beat
// records are ignored); nodes is the store's current node table. The
// fold also enforces the record discipline itself: a beat record must
// never be empty, target an uninstalled node, or carry a delta that
// does not advance the folded timestamp — the store only commits (and
// only logs) deltas that moved a record forward.
func CheckBeatDeltas(base map[string]time.Time, muts []db.Mutation, nodes []db.NodeRecord) []Violation {
	var vs []Violation
	expected := make(map[string]time.Time, len(base))
	for id, at := range base {
		expected[id] = at
	}
	ordered := make([]db.Mutation, len(muts))
	copy(ordered, muts)
	// Observer deliveries race across shards; the LSN is the commit
	// order, and any two mutations touching one node share its shard,
	// so sorting makes every per-node subsequence causally ordered.
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].LSN < ordered[j].LSN })
	for _, m := range ordered {
		switch m.Type {
		case db.MutNodePut:
			if m.Node != nil {
				expected[m.Node.ID] = m.Node.LastHeartbeat
			}
		case db.MutBeat:
			if len(m.Beats) == 0 {
				vs = append(vs, Violation{
					Rule:   "beat-delta-equivalence",
					Detail: fmt.Sprintf("beat record at LSN %d carries no deltas", m.LSN),
				})
			}
			for _, b := range m.Beats {
				prev, ok := expected[b.NodeID]
				if !ok {
					vs = append(vs, Violation{
						Rule:   "beat-delta-equivalence",
						Detail: fmt.Sprintf("beat delta at LSN %d targets node %s with no installed image", m.LSN, b.NodeID),
					})
					expected[b.NodeID] = b.At
					continue
				}
				if !b.At.After(prev) {
					vs = append(vs, Violation{
						Rule: "beat-delta-equivalence",
						Detail: fmt.Sprintf("beat delta at LSN %d does not advance node %s (%s after %s)",
							m.LSN, b.NodeID, b.At.Format(time.RFC3339Nano), prev.Format(time.RFC3339Nano)),
					})
					continue
				}
				expected[b.NodeID] = b.At
			}
		}
	}
	for i := range nodes {
		n := &nodes[i]
		want, ok := expected[n.ID]
		if !ok {
			vs = append(vs, Violation{
				Rule:   "beat-delta-equivalence",
				Detail: fmt.Sprintf("node %s in the store but absent from the audited stream", n.ID),
			})
			continue
		}
		if !want.Equal(n.LastHeartbeat) {
			vs = append(vs, Violation{
				Rule: "beat-delta-equivalence",
				Detail: fmt.Sprintf("node %s heartbeat diverges: folding the deltas yields %s, the store holds %s",
					n.ID, want.Format(time.RFC3339Nano), n.LastHeartbeat.Format(time.RFC3339Nano)),
			})
		}
	}
	return vs
}

// BeatAudit records the node-image and beat-delta slice of a live
// store's mutation stream so CheckBeatDeltas can run at any later
// quiescent point. Attach at a quiescent point: the base snapshot and
// the subscription are not atomic, so a write racing the attach could
// be double-counted.
type BeatAudit struct {
	mu   sync.Mutex
	base map[string]time.Time
	muts []db.Mutation
}

// NewBeatAudit snapshots the store's current heartbeat timestamps and
// subscribes to its mutation stream. The returned cancel detaches the
// subscription (call it before attaching a fresh audit to a successor
// store).
func NewBeatAudit(s db.Store) (*BeatAudit, func()) {
	a := &BeatAudit{base: make(map[string]time.Time)}
	for _, n := range s.ListNodes() {
		a.base[n.ID] = n.LastHeartbeat
	}
	return a, s.AddMutationObserver(a.observe)
}

func (a *BeatAudit) observe(m db.Mutation) {
	if m.Type != db.MutNodePut && m.Type != db.MutBeat {
		return
	}
	a.mu.Lock()
	a.muts = append(a.muts, m)
	a.mu.Unlock()
}

// Check folds the recorded stream and compares it against the store's
// current node table. Call at a quiescent point.
func (a *BeatAudit) Check(s db.Store) []Violation {
	a.mu.Lock()
	muts := make([]db.Mutation, len(a.muts))
	copy(muts, a.muts)
	base := a.base
	a.mu.Unlock()
	return CheckBeatDeltas(base, muts, s.ListNodes())
}
