package invariant

import (
	"fmt"
	"time"

	"gpunion/internal/db"
)

// beatRule is beat-delta equivalence: coalescing heartbeats into
// compact MutBeat records must lose no advance and invent none. The
// folded value is a node's LastHeartbeat.
var beatRule = deltaRule[time.Time]{
	rule:  "beat-delta-equivalence",
	noun:  "beat delta",
	typ:   db.MutBeat,
	image: func(n *db.NodeRecord) time.Time { return n.LastHeartbeat },
	at:    func(t time.Time) time.Time { return t },
	empty: "beat record at LSN %d carries no deltas",
	deltas: func(m db.Mutation) []nodeDelta[time.Time] {
		ds := make([]nodeDelta[time.Time], len(m.Beats))
		for i, b := range m.Beats {
			ds[i] = nodeDelta[time.Time]{node: b.NodeID, next: b.At}
		}
		return ds
	},
	diverges: func(want time.Time, n *db.NodeRecord) string {
		if want.Equal(n.LastHeartbeat) {
			return ""
		}
		return fmt.Sprintf("heartbeat diverges: folding the deltas yields %s, the store holds %s",
			want.Format(time.RFC3339Nano), n.LastHeartbeat.Format(time.RFC3339Nano))
	},
}

// BeatAudit records a live store's stream for beat-delta equivalence;
// Check folds it against the store's current node table.
type BeatAudit struct{ streamAudit[time.Time] }

// NewBeatAudit snapshots the store's current heartbeat timestamps and
// subscribes to its mutation stream (see streamAudit.attach for the
// cancel and the quiescence rule).
func NewBeatAudit(s db.Store) (*BeatAudit, func()) {
	a := &BeatAudit{}
	return a, a.attach(s, beatRule)
}
