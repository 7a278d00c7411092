package db

import (
	"fmt"
	"sort"
)

// This file maintains the job table's materialized indexes. The
// jobTable carries, next to its record map:
//
//   - queue: per-state record lists. For the live states (pending,
//     running) they are kept permanently in pending-queue order
//     (priority descending, submission time ascending, ID as the final
//     tiebreak), so JobsInState copies a sorted list instead of
//     scanning and re-sorting the whole table; terminal states are
//     unordered so completions stay O(1) however long the campus
//     history grows (see orderedState);
//   - byNode: the records currently holding a placement (Running with
//     a node), keyed by node, so JobsOnNode — the heartbeat
//     anti-entropy scan — touches only the jobs actually on the node;
//   - stateCount: per-state totals behind CountJobsInState.
//
// All three are *derived* state: they are mutated only under the table
// write lock, in the same critical section as the record map, emit no
// mutations of their own, and are rebuilt from scratch on ImportState.
// Records are copy-on-write (mutators install a fresh clone, installed
// records are never modified), so index entries are plain pointers into
// the record map. AuditIndexes verifies index ↔ record-map equivalence;
// the invariant checker runs it after every injected chaos fault.
// Device occupancy is derived too: GPUInfo.Allocated reads true exactly
// when a JobRunning record names the device. Job writes (syncHeld) and
// node installs (putNode) derive it; the job table's lock comes first.

// queueLess orders records by pending-queue precedence: priority
// descending, submission time ascending, ID ascending. IDs are unique,
// so the order is total — every record has exactly one queue position.
func queueLess(a, b *JobRecord) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.SubmittedAt.Equal(b.SubmittedAt) {
		return a.SubmittedAt.Before(b.SubmittedAt)
	}
	return a.ID < b.ID
}

// orderedState reports whether the state's queue slice is kept sorted.
// Only the live states are: their populations are bounded by cluster
// capacity and their order is what the scheduler and reconciliation
// consume. Terminal states grow with campus history — a sorted insert
// there would make every completion an O(history) memmove (and
// recovery import quadratic), so their slices are unordered and the
// rare terminal-state listing sorts at query time.
func orderedState(state JobState) bool {
	return state == JobPending || state == JobRunning
}

// indexed reports whether the record belongs in the byNode index.
func indexedOnNode(rec *JobRecord) bool {
	return rec.NodeID != "" && rec.State == JobRunning
}

// derive sets n's device flags from its running jobs and reports whether
// one changed; n owns its GPUs (cloneNode). Callers hold the table lock.
func (t *jobTable) derive(n *NodeRecord) (changed bool) {
	for i, g := range n.GPUs {
		held := false
		for _, rec := range t.byNode[n.ID] {
			held = held || rec.DeviceID == g.DeviceID
		}
		changed = changed || held != g.Allocated
		n.GPUs[i].Allocated = held
	}
	return changed
}

// indexInsert adds a newly installed record to every index. Callers
// hold the table write lock and must not modify rec afterwards.
func (t *jobTable) indexInsert(rec *JobRecord) {
	q := t.queue[rec.State]
	if orderedState(rec.State) {
		i := sort.Search(len(q), func(i int) bool { return queueLess(rec, q[i]) })
		q = append(q, nil)
		copy(q[i+1:], q[i:])
		q[i] = rec
	} else {
		q = append(q, rec)
	}
	t.queue[rec.State] = q

	if indexedOnNode(rec) {
		m := t.byNode[rec.NodeID]
		if m == nil {
			m = make(map[string]*JobRecord)
			t.byNode[rec.NodeID] = m
		}
		m[rec.ID] = rec
	}
	t.stateCount[rec.State]++
}

// indexRemove drops a record from every index before it is replaced or
// discarded. rec must be the pointer currently installed in the record
// map (its key fields locate the exact queue slot).
func (t *jobTable) indexRemove(rec *JobRecord) {
	q := t.queue[rec.State]
	if orderedState(rec.State) {
		i := sort.Search(len(q), func(i int) bool { return !queueLess(q[i], rec) })
		if i < len(q) && q[i] == rec {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			t.queue[rec.State] = q[:len(q)-1]
		}
	} else {
		// Unordered slice: locate by pointer, remove by swap. Records
		// rarely leave a terminal state (replayed after-images only).
		for i, cur := range q {
			if cur == rec {
				q[i] = q[len(q)-1]
				q[len(q)-1] = nil
				t.queue[rec.State] = q[:len(q)-1]
				break
			}
		}
	}
	if indexedOnNode(rec) {
		if m := t.byNode[rec.NodeID]; m != nil {
			delete(m, rec.ID)
			if len(m) == 0 {
				delete(t.byNode, rec.NodeID)
			}
		}
	}
	t.stateCount[rec.State]--
	if t.stateCount[rec.State] == 0 {
		delete(t.stateCount, rec.State)
	}
}

// reset empties the record map and every index (ImportState rebuilds
// via indexInsert).
func (t *jobTable) reset() {
	t.recs = make(map[string]*JobRecord)
	t.queue = make(map[JobState][]*JobRecord)
	t.byNode = make(map[string]map[string]*JobRecord)
	t.stateCount = make(map[JobState]int)
}

// AuditIndexes verifies every materialized index and device flag against
// a full scan of the ground-truth record map and returns the
// discrepancies found (empty means every index is exact). It exists for
// the invariant checker: the indexes are derived state, and any drift
// from the record map is a platform bug no matter how the store got there.
func (d *DB) AuditIndexes() []string {
	t := &d.jobs
	t.mu.RLock()
	defer t.mu.RUnlock()
	var probs []string
	tally := make(map[JobState]int, len(t.stateCount))
	placed := 0
	for _, rec := range t.recs {
		tally[rec.State]++
		if indexedOnNode(rec) {
			placed++
		}
	}

	queued := 0
	for state, q := range t.queue {
		queued += len(q)
		for i, rec := range q {
			if rec.State != state {
				probs = append(probs, fmt.Sprintf(
					"queue[%s] holds job %s in state %s", state, rec.ID, rec.State))
			}
			if cur, ok := t.recs[rec.ID]; !ok || cur != rec {
				probs = append(probs, fmt.Sprintf(
					"queue[%s] entry %s is not the installed record", state, rec.ID))
			}
			if orderedState(state) && i > 0 && !queueLess(q[i-1], rec) {
				probs = append(probs, fmt.Sprintf(
					"queue[%s] out of order at %s", state, rec.ID))
			}
		}
	}
	if queued != len(t.recs) {
		probs = append(probs, fmt.Sprintf(
			"queues hold %d records, map holds %d", queued, len(t.recs)))
	}

	indexed := 0
	for nodeID, m := range t.byNode {
		if len(m) == 0 {
			probs = append(probs, fmt.Sprintf("byNode[%s] is an empty bucket", nodeID))
		}
		for id, rec := range m {
			indexed++
			if cur, ok := t.recs[id]; !ok || cur != rec {
				probs = append(probs, fmt.Sprintf(
					"byNode[%s] entry %s is not the installed record", nodeID, id))
				continue
			}
			if !indexedOnNode(rec) || rec.NodeID != nodeID {
				probs = append(probs, fmt.Sprintf(
					"byNode[%s] holds job %s (state %s on %q)", nodeID, id, rec.State, rec.NodeID))
			}
		}
	}
	if indexed != placed {
		probs = append(probs, fmt.Sprintf(
			"byNode holds %d records, scan finds %d placed", indexed, placed))
	}

	for state, n := range t.stateCount {
		if tally[state] != n {
			probs = append(probs, fmt.Sprintf(
				"stateCount[%s] = %d, scan finds %d", state, n, tally[state]))
		}
	}
	for state, n := range tally {
		if _, ok := t.stateCount[state]; !ok && n != 0 {
			probs = append(probs, fmt.Sprintf(
				"stateCount[%s] missing, scan finds %d", state, n))
		}
	}
	for _, n := range d.ListNodes() {
		if cp := cloneNode(n); t.derive(&cp) {
			probs = append(probs, fmt.Sprintf(
				"node %s devices %+v, the job table says %+v", n.ID, n.GPUs, cp.GPUs))
		}
	}
	return probs
}
