package invariant

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gpunion/internal/db"
)

// Aggregation equivalence: the rack roll-up tier (internal/aggregator)
// must be semantically invisible. Folding no-op beats into deltas and
// replaying them at the coordinator may neither fabricate liveness the
// fleet never reported, persistently lose liveness it acknowledged,
// silently drop health events it acknowledged, nor regress the leader
// epoch an aggregator has already learned. The audit observes the
// system from both ends — the harness reports every acknowledged beat
// and registration on the agent side, the store's mutation stream
// supplies the committed health folds on the coordinator side — and
// Check compares the two views at a quiescent point.
//
// The loss rules are deliberately asymmetric. An aggregator crash is
// allowed to lose the deltas of its open flush window (the tier's
// bounded-lag contract, the same contract the coordinator's own
// volatile coalescing buffer makes), so "dropped liveness" only fires
// when a live node's store timestamp trails its newest acknowledged
// beat by more than the caller's tolerance — a window's worth of lag
// heals on the next beat, a sabotaged fold that drops a node forever
// does not. Fabrication has no such allowance: every LastHeartbeat the
// store ends at must be an instant some acknowledged beat or
// registration actually carried.

// AggAudit accumulates both views of the aggregation tier. Create it,
// and Watch a successor store, at a quiescent point (the base snapshot
// and the mutation subscription are not atomic). The harness must
// report *every* acknowledged beat — aggregator-acked and direct alike
// — or honest direct traffic would read as fabrication.
type AggAudit struct {
	mu sync.Mutex
	// acked holds, per node, the set of instants (UnixNano) carried by
	// acknowledged beats and registrations; the store must land on one.
	acked map[string]map[int64]bool
	// maxAcked is each node's newest acknowledged instant.
	maxAcked map[string]time.Time
	// ackedHealth / foldedHealth count health events acknowledged on
	// the agent side vs. committed in MutNodeHealth records.
	ackedHealth  map[string]int
	foldedHealth map[string]int
	// aggEpoch is the highest leader epoch each aggregator has been
	// observed to learn; a forward below it is a regression.
	aggEpoch map[string]uint64
	// aggWindow is the newest window sequence each aggregator has
	// forwarded; a forward at or below it is a replayed batch.
	aggWindow map[string]uint64
	// violations collects regressions detected at observation time.
	violations []Violation
}

// NewAggAudit snapshots the store's current heartbeat timestamps (they
// seed the acknowledged sets — pre-attach state is not fabrication)
// and subscribes to its mutation stream for health-fold counting. The
// returned cancel detaches the subscription.
func NewAggAudit(s db.Store) (*AggAudit, func()) {
	a := &AggAudit{
		acked:        make(map[string]map[int64]bool),
		maxAcked:     make(map[string]time.Time),
		ackedHealth:  make(map[string]int),
		foldedHealth: make(map[string]int),
		aggEpoch:     make(map[string]uint64),
		aggWindow:    make(map[string]uint64),
	}
	for _, n := range s.ListNodes() {
		a.acked[n.ID] = map[int64]bool{n.LastHeartbeat.UnixNano(): true}
		a.maxAcked[n.ID] = n.LastHeartbeat
	}
	return a, s.AddMutationObserver(a.observe)
}

// Watch subscribes the audit to a successor store's mutation stream
// (after a failover the acknowledged sets must survive; only the
// subscription is store-bound). Cancel the previous subscription first.
func (a *AggAudit) Watch(s db.Store) func() {
	return s.AddMutationObserver(a.observe)
}

// ObserveRegister records an acknowledged (re-)registration: Register
// installs the node with LastHeartbeat = at.
func (a *AggAudit) ObserveRegister(nodeID string, at time.Time) {
	a.ObserveAck(nodeID, at, 0)
}

// ObserveAck records one acknowledged beat: the instant the
// acknowledging tier stamped it with (the aggregator's receipt time on
// the folded path, the coordinator's on the direct path) and the
// number of health events the beat carried. Report only genuine acks —
// a Reregister verdict or an error means the report was not applied.
func (a *AggAudit) ObserveAck(nodeID string, at time.Time, healthEvents int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	set, ok := a.acked[nodeID]
	if !ok {
		set = make(map[int64]bool)
		a.acked[nodeID] = set
	}
	set[at.UnixNano()] = true
	if at.After(a.maxAcked[nodeID]) {
		a.maxAcked[nodeID] = at
	}
	a.ackedHealth[nodeID] += healthEvents
}

// ObserveForward records one upstream batch forward — observe every
// attempt, delivered or not: a consumed window sequence stays consumed.
// Two wire-level rules check at observation time. A correct aggregator
// fences every batch with the newest epoch it has learned, so a
// forward below that is a regression — stale-window data dressed in a
// superseded lease — whether or not the coordinator's own fence
// catches it. And its window sequence is strictly monotone, so a
// forward at or below one already observed is a replayed batch — the
// coordinator's per-node sequence guard and forward-only beat buffers
// absorb the replay, but the relay is misbehaving and must be flagged.
func (a *AggAudit) ObserveForward(aggregatorID string, epochSent, windowSeq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if known := a.aggEpoch[aggregatorID]; epochSent < known {
		a.violations = append(a.violations, Violation{
			Rule: "aggregation-equivalence",
			Detail: fmt.Sprintf("aggregator %s forwarded a batch fenced to epoch %d after learning epoch %d",
				aggregatorID, epochSent, known),
		})
	}
	if prev := a.aggWindow[aggregatorID]; windowSeq <= prev {
		a.violations = append(a.violations, Violation{
			Rule: "aggregation-equivalence",
			Detail: fmt.Sprintf("aggregator %s replayed window %d after already forwarding window %d",
				aggregatorID, windowSeq, prev),
		})
	} else {
		a.aggWindow[aggregatorID] = windowSeq
	}
}

// ObserveAggEpoch records the leader epoch an aggregator learned from
// a successful upstream response.
func (a *AggAudit) ObserveAggEpoch(aggregatorID string, epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if epoch > a.aggEpoch[aggregatorID] {
		a.aggEpoch[aggregatorID] = epoch
	}
}

func (a *AggAudit) observe(m db.Mutation) {
	if m.Type != db.MutNodeHealth || m.Health == nil || len(m.Health.Events) == 0 {
		return
	}
	a.mu.Lock()
	a.foldedHealth[m.Health.NodeID] += len(m.Health.Events)
	a.mu.Unlock()
}

// Check compares the two views at a quiescent point. lag is the
// liveness staleness the caller tolerates on live nodes; it must cover
// one aggregator flush window plus a heartbeat interval or two (a
// crashed window's deltas are legitimately lost until the node's next
// beat lands).
func (a *AggAudit) Check(s db.Store, lag time.Duration) []Violation {
	a.mu.Lock()
	vs := append([]Violation(nil), a.violations...)
	nodes := s.ListNodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for i := range nodes {
		n := &nodes[i]
		set := a.acked[n.ID]
		if set == nil {
			vs = append(vs, Violation{
				Rule:   "aggregation-equivalence",
				Detail: fmt.Sprintf("node %s in the store but no beat or registration was ever acknowledged for it", n.ID),
			})
			continue
		}
		if !set[n.LastHeartbeat.UnixNano()] {
			vs = append(vs, Violation{
				Rule: "aggregation-equivalence",
				Detail: fmt.Sprintf("node %s: store heartbeat %s was never acknowledged — fabricated advance",
					n.ID, n.LastHeartbeat.Format(time.RFC3339Nano)),
			})
		}
		// The lag rule covers live nodes and — the most damaging form of
		// dropped liveness — nodes swept unreachable while newer
		// acknowledged beats existed: a relay that eats a node's deltas
		// starves the failure detector and gets the node falsely
		// declared dead. Departed nodes are excluded: an announced
		// departure deliberately discards the node's buffered advance
		// (coalescing buffer and in-window deltas alike), so a frozen
		// timestamp there is the contract, not a loss.
		if n.Status != db.NodeActive && n.Status != db.NodePaused &&
			n.Status != db.NodeUnreachable {
			continue
		}
		if gap := a.maxAcked[n.ID].Sub(n.LastHeartbeat); gap > lag {
			vs = append(vs, Violation{
				Rule: "aggregation-equivalence",
				Detail: fmt.Sprintf("node %s: newest acknowledged beat %s leads the store by %s (tolerance %s) — dropped liveness",
					n.ID, a.maxAcked[n.ID].Format(time.RFC3339Nano), gap, lag),
			})
		}
	}
	// Health completeness is one-sided: every acknowledged event must
	// have been folded (the passthrough contract forwards them
	// synchronously), but a fold whose acknowledgement was lost in
	// flight is at-least-once residue, not a tier defect.
	ids := make([]string, 0, len(a.ackedHealth))
	for id := range a.ackedHealth {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if want, got := a.ackedHealth[id], a.foldedHealth[id]; want > got {
			vs = append(vs, Violation{
				Rule: "aggregation-equivalence",
				Detail: fmt.Sprintf("node %s: %d health events acknowledged but only %d folded — dropped health",
					id, want, got),
			})
		}
	}
	a.mu.Unlock()
	return vs
}
