package invariant

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"gpunion/internal/db"
)

// Delta equivalence: some node state reaches the store two ways, as
// full node after-images (MutNodePut) and as compact delta records, and
// folding the committed stream over the values the store held when
// recording began must land exactly on what every node record ends at.
// A delta that was dropped, fabricated or applied twice surfaces as a
// divergence. One fold and one recorder serve every such rule
// (beat-delta-equivalence, health-score-consistent); a deltaRule is
// what differs between them.

// nodeDelta is one node's step inside a delta record.
type nodeDelta[T any] struct {
	node string
	next T
	// check, when set, re-derives next from its predecessor and says
	// what is wrong with it ("" when it follows).
	check func(prev T) string
}

// deltaRule describes one delta-equivalence rule over folded values T.
type deltaRule[T any] struct {
	rule  string                   // Violation.Rule
	noun  string                   // what details call a delta
	typ   db.MutationType          // the delta record's type
	image func(n *db.NodeRecord) T // the folded value a node record holds
	at    func(v T) time.Time      // its timestamp; a delta must move it forward
	empty string                   // detail (one %d: the LSN) for a record with no deltas
	// deltas unpacks a record of type typ.
	deltas func(m db.Mutation) []nodeDelta[T]
	// diverges says how the fold and the stored record differ ("" when
	// they agree).
	diverges func(want T, n *db.NodeRecord) string
}

// fold audits the rule. base holds each node's value when the stream
// began; muts is the committed mutation stream since then (types other
// than node images and the rule's delta records are ignored); nodes is
// the store's current node table. The fold also enforces the record
// discipline itself: a delta record must never be empty, target an
// uninstalled node, or carry a delta that does not advance the folded
// timestamp — the store only commits (and only logs) deltas that moved
// a record forward.
func (r deltaRule[T]) fold(base map[string]T, muts []db.Mutation, nodes []db.NodeRecord) []Violation {
	var vs []Violation
	flag := func(format string, args ...any) {
		vs = append(vs, Violation{Rule: r.rule, Detail: fmt.Sprintf(format, args...)})
	}
	expected := make(map[string]T, len(base))
	maps.Copy(expected, base)
	ordered := slices.Clone(muts)
	// Observer deliveries race across shards; the LSN is the commit
	// order, and any two mutations touching one node share its shard,
	// so sorting makes every per-node subsequence causally ordered.
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].LSN < ordered[j].LSN })
	for _, m := range ordered {
		switch m.Type {
		case db.MutNodePut:
			if m.Node != nil {
				expected[m.Node.ID] = r.image(m.Node)
			}
		case r.typ:
			ds := r.deltas(m)
			if len(ds) == 0 {
				flag(r.empty, m.LSN)
			}
			for _, d := range ds {
				prev, ok := expected[d.node]
				switch {
				case !ok:
					flag("%s at LSN %d targets node %s with no installed image", r.noun, m.LSN, d.node)
				case !r.at(d.next).After(r.at(prev)):
					flag("%s at LSN %d does not advance node %s (%s after %s)", r.noun, m.LSN, d.node,
						r.at(d.next).Format(time.RFC3339Nano), r.at(prev).Format(time.RFC3339Nano))
					continue
				case d.check != nil:
					if wrong := d.check(prev); wrong != "" {
						flag("%s at LSN %d for node %s %s", r.noun, m.LSN, d.node, wrong)
					}
				}
				expected[d.node] = d.next
			}
		}
	}
	for i := range nodes {
		n := &nodes[i]
		want, ok := expected[n.ID]
		if !ok {
			flag("node %s in the store but absent from the audited stream", n.ID)
		} else if differ := r.diverges(want, n); differ != "" {
			flag("node %s %s", n.ID, differ)
		}
	}
	return vs
}

// streamAudit records the node-image and delta-record slice of a live
// store's mutation stream so its rule can be folded at any later
// quiescent point.
type streamAudit[T any] struct {
	rule deltaRule[T]
	base map[string]T

	mu   sync.Mutex
	muts []db.Mutation
}

// attach snapshots the store's current values and subscribes to its
// mutation stream; the returned cancel detaches the subscription (call
// it before attaching a fresh audit to a successor store). Attach at a
// quiescent point: the base snapshot and the subscription are not
// atomic, so a write racing the attach could be double-counted.
func (a *streamAudit[T]) attach(s db.Store, rule deltaRule[T]) func() {
	a.rule, a.base = rule, make(map[string]T)
	nodes := s.ListNodes()
	for i := range nodes {
		a.base[nodes[i].ID] = rule.image(&nodes[i])
	}
	return s.AddMutationObserver(func(m db.Mutation) {
		if m.Type != db.MutNodePut && m.Type != rule.typ {
			return
		}
		a.mu.Lock()
		a.muts = append(a.muts, m)
		a.mu.Unlock()
	})
}

// Check folds the recorded stream and compares it against the store's
// current node table. Call at a quiescent point.
func (a *streamAudit[T]) Check(s db.Store) []Violation {
	// The slice header is snapshot enough: appends never rewrite a
	// recorded element, and fold sorts a copy of its own.
	a.mu.Lock()
	muts := a.muts
	a.mu.Unlock()
	return a.rule.fold(a.base, muts, s.ListNodes())
}
