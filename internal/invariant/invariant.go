// Package invariant audits the system database for the structural
// properties every GPUnion deployment must preserve, no matter what
// sequence of node churn, partitions, disk faults and coordinator
// crashes the platform absorbs. The chaos harness (internal/chaos,
// internal/sim.RunChaos) runs the checker after every injected fault;
// any violation is a platform bug, not a tolerable degradation.
//
// The invariants checked:
//
//   - device-double-allocation: no two running jobs occupy the same
//     (node, device) pair;
//   - running-device-allocated: a running job's device exists on its
//     node and is marked allocated;
//   - running-node-live: a running job's node is Active or Paused —
//     work never "runs" on a departed or unreachable provider;
//   - job-node-referential: a running or migrating job's NodeID
//     resolves to a registered node;
//   - pending-detached: a pending job holds no placement;
//   - alloc-referential: every allocation episode belongs to a known
//     job;
//   - alloc-open-unique: a job has at most one open allocation episode;
//   - alloc-matches-job: a running job has exactly one open episode and
//     it matches the job's current placement; a non-running job has
//     none;
//   - state-count-consistent: the store's per-state counters agree
//     with a full job scan (validates the job table's per-state
//     counters across snapshot import and WAL replay);
//   - index-consistent: every indexed query (JobsInState with its
//     queue ordering, JobsOnNode, ActiveNodes) returns exactly what a
//     full ground-truth scan derives, and — for stores exposing
//     AuditIndexes — the materialized index structures themselves are
//     byte-equivalent to a fresh rebuild and every node's device flags
//     read what its running jobs say. Indexes are derived state; any
//     drift after churn, replay or import is a platform bug;
//   - lsn-monotonic: the store's mutation sequence never moves
//     backwards — including across a crash/recovery boundary, when the
//     checker outlives the store instance.
//
// Recovery byte-equivalence (a restored store matching the pre-crash
// one) is checked separately via CheckEquivalence at crash/restart
// points, where both images exist. Three further rules audit state the
// database alone cannot show and are driven by the harness with the
// extra context they need:
//
//   - checkpoint-integrity (CheckCheckpoints): every live job's restore
//     chain resolves to a structurally valid generation — full snapshot
//     first, increments linked base-to-head, progress never regressing —
//     or to no checkpoint at all. Corruption in the checkpoint store
//     must be absorbed by CRC detection and generation fallback, never
//     surfaced as a broken chain;
//   - skew-bounded-liveness (CheckSkewLiveness): a node whose only
//     fault is a bounded clock skew stays in service — failure
//     detection must key off receiver-side time, not sender clocks;
//   - no-duplicate-side-effects (chaos.VerifyIdempotent): replaying an
//     already-processed control message mutates nothing — no LSN taken,
//     no mutation observer notified (samples take no LSN).
//
// Two rules audit the mutation stream rather than the tables, on one
// recorder and one fold (stream.go) with a rule value each:
// beat-delta-equivalence (BeatAudit, beats.go) —
// coalesced MutBeat deltas lose no heartbeat advance and invent none —
// and health-score-consistent, the first of the gray-failure rules
// below.
//
// Gray-failure handling adds three more (see health.go):
//
//   - health-score-consistent (HealthAudit): every
//     persisted node health score is exactly the deterministic fold of
//     the events the mutation stream carries — including across crash
//     recovery and standby promotion;
//   - no-placement-on-unhealthy (CheckNoPlacementOnUnhealthy): the
//     scheduler never places new work on a node below the unhealthy
//     threshold;
//   - degraded-node-drained (CheckDegradedDrained): predictive
//     checkpoint-then-migrate empties unhealthy nodes whenever feasible
//     spare capacity exists.
package invariant

import (
	"errors"
	"fmt"
	"sort"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
)

// Violation is one broken invariant.
type Violation struct {
	// Rule names the invariant (stable identifier, kebab-case).
	Rule string
	// Detail is a human-readable description of the evidence.
	Detail string
}

// String renders the violation for logs and test failures.
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Checker audits a Store. The zero value is usable; the checker carries
// state across calls (the LSN high-water mark), so one Checker should
// observe a deployment for its whole lifetime — including across
// coordinator restarts, where LSN monotonicity is exactly the property
// worth checking.
type Checker struct {
	lastLSN uint64
}

// NewChecker returns a fresh checker.
func NewChecker() *Checker { return &Checker{} }

// Check audits the store once and returns every violation found. It
// must be called at a quiescent point (between discrete-event
// callbacks, not mid-operation): the store's methods are individually
// consistent but a multi-step transition observed halfway through is
// not a platform bug.
func (c *Checker) Check(s db.Store) []Violation {
	var vs []Violation

	nodes := s.ListNodes()
	jobs := s.ListJobs()
	allocs := s.Allocations()

	nodeByID := make(map[string]db.NodeRecord, len(nodes))
	for _, n := range nodes {
		nodeByID[n.ID] = n
	}
	jobByID := make(map[string]db.JobRecord, len(jobs))
	for _, j := range jobs {
		jobByID[j.ID] = j
	}

	// --- Placement invariants over the job table. ---
	deviceOwner := make(map[string]string) // "node/device" -> jobID
	stateTally := make(map[db.JobState]int)
	for _, j := range jobs {
		stateTally[j.State]++
		switch j.State {
		case db.JobRunning:
			key := j.NodeID + "/" + j.DeviceID
			if owner, taken := deviceOwner[key]; taken {
				vs = append(vs, Violation{
					Rule:   "device-double-allocation",
					Detail: fmt.Sprintf("jobs %s and %s both run on %s", owner, j.ID, key),
				})
			}
			deviceOwner[key] = j.ID
			n, ok := nodeByID[j.NodeID]
			if !ok {
				vs = append(vs, Violation{
					Rule:   "job-node-referential",
					Detail: fmt.Sprintf("running job %s placed on unknown node %q", j.ID, j.NodeID),
				})
				continue
			}
			if n.Status != db.NodeActive && n.Status != db.NodePaused {
				vs = append(vs, Violation{
					Rule:   "running-node-live",
					Detail: fmt.Sprintf("job %s runs on node %s in status %s", j.ID, j.NodeID, n.Status),
				})
			}
			found := false
			for _, g := range n.GPUs {
				if g.DeviceID != j.DeviceID {
					continue
				}
				found = true
				if !g.Allocated {
					vs = append(vs, Violation{
						Rule:   "running-device-allocated",
						Detail: fmt.Sprintf("job %s runs on %s/%s but the device is marked free", j.ID, j.NodeID, j.DeviceID),
					})
				}
			}
			if !found {
				vs = append(vs, Violation{
					Rule:   "running-device-allocated",
					Detail: fmt.Sprintf("job %s runs on %s/%s but the node has no such device", j.ID, j.NodeID, j.DeviceID),
				})
			}
		case db.JobMigrating:
			// A migrating job's NodeID is its last placement (the source
			// it is being moved away from); it must still resolve.
			if j.NodeID != "" {
				if _, ok := nodeByID[j.NodeID]; !ok {
					vs = append(vs, Violation{
						Rule:   "job-node-referential",
						Detail: fmt.Sprintf("migrating job %s references unknown node %q", j.ID, j.NodeID),
					})
				}
			}
		case db.JobPending:
			if j.NodeID != "" || j.DeviceID != "" {
				vs = append(vs, Violation{
					Rule:   "pending-detached",
					Detail: fmt.Sprintf("pending job %s still holds placement %s/%s", j.ID, j.NodeID, j.DeviceID),
				})
			}
		}
	}

	// --- Allocation-history invariants. ---
	openByJob := make(map[string]db.AllocationRecord)
	for _, a := range allocs {
		if _, ok := jobByID[a.JobID]; !ok {
			vs = append(vs, Violation{
				Rule:   "alloc-referential",
				Detail: fmt.Sprintf("allocation on %s/%s belongs to unknown job %q", a.NodeID, a.DeviceID, a.JobID),
			})
			continue
		}
		if !a.End.IsZero() {
			continue
		}
		if prev, dup := openByJob[a.JobID]; dup {
			vs = append(vs, Violation{
				Rule: "alloc-open-unique",
				Detail: fmt.Sprintf("job %s has two open episodes: %s/%s and %s/%s",
					a.JobID, prev.NodeID, prev.DeviceID, a.NodeID, a.DeviceID),
			})
			continue
		}
		openByJob[a.JobID] = a
	}
	for _, j := range jobs {
		open, has := openByJob[j.ID]
		if j.State == db.JobRunning {
			switch {
			case !has:
				vs = append(vs, Violation{
					Rule:   "alloc-matches-job",
					Detail: fmt.Sprintf("running job %s has no open allocation episode", j.ID),
				})
			case open.NodeID != j.NodeID || open.DeviceID != j.DeviceID:
				vs = append(vs, Violation{
					Rule: "alloc-matches-job",
					Detail: fmt.Sprintf("job %s runs on %s/%s but its open episode is on %s/%s",
						j.ID, j.NodeID, j.DeviceID, open.NodeID, open.DeviceID),
				})
			}
		} else if has {
			vs = append(vs, Violation{
				Rule: "alloc-matches-job",
				Detail: fmt.Sprintf("job %s is %s but still holds an open episode on %s/%s",
					j.ID, j.State, open.NodeID, open.DeviceID),
			})
		}
	}

	// --- Counter consistency (per-state counters vs scan). ---
	for _, state := range []db.JobState{
		db.JobPending, db.JobRunning, db.JobMigrating,
		db.JobCompleted, db.JobFailed, db.JobKilled,
	} {
		if got, want := s.CountJobsInState(state), stateTally[state]; got != want {
			vs = append(vs, Violation{
				Rule:   "state-count-consistent",
				Detail: fmt.Sprintf("CountJobsInState(%s) = %d, scan finds %d", state, got, want),
			})
		}
	}

	// --- Derived-index consistency: indexed queries vs the scan. ---
	vs = append(vs, checkIndexes(s, nodes, jobs)...)

	// --- LSN monotonicity across the checker's lifetime. ---
	if lsn := s.CurrentLSN(); lsn < c.lastLSN {
		vs = append(vs, Violation{
			Rule:   "lsn-monotonic",
			Detail: fmt.Sprintf("mutation sequence moved backwards: %d after %d", lsn, c.lastLSN),
		})
	} else {
		c.lastLSN = lsn
	}
	return vs
}

// checkIndexes verifies every index-backed query against the already-
// collected ground-truth scans, and runs the store's own deep index
// audit when it exposes one. The queries under test are exactly the
// hot paths the materialized indexes serve: the scheduler's pending
// queue, heartbeat anti-entropy's per-node job set, and the
// scheduler's active-node pool.
func checkIndexes(s db.Store, nodes []db.NodeRecord, jobs []db.JobRecord) []Violation {
	var vs []Violation

	// JobsInState must return the scan-derived set, in queue order.
	byState := make(map[db.JobState][]db.JobRecord)
	for _, j := range jobs {
		byState[j.State] = append(byState[j.State], j)
	}
	for _, state := range []db.JobState{
		db.JobPending, db.JobRunning, db.JobMigrating,
		db.JobCompleted, db.JobFailed, db.JobKilled,
	} {
		got := s.JobsInState(state)
		if miss := setDiff(jobIDs(got), jobIDs(byState[state])); miss != "" {
			vs = append(vs, Violation{
				Rule:   "index-consistent",
				Detail: fmt.Sprintf("JobsInState(%s) diverges from scan: %s", state, miss),
			})
			continue
		}
		for i := 1; i < len(got); i++ {
			if queuePrecedes(got[i], got[i-1]) {
				vs = append(vs, Violation{
					Rule:   "index-consistent",
					Detail: fmt.Sprintf("JobsInState(%s) out of queue order at job %s", state, got[i].ID),
				})
				break
			}
		}
	}

	// JobsOnNode must return the scan-derived placement set, for every
	// node the scan knows and every node the jobs reference.
	wantOnNode := make(map[string][]string)
	for _, j := range jobs {
		if j.NodeID != "" && (j.State == db.JobRunning || j.State == db.JobMigrating) {
			wantOnNode[j.NodeID] = append(wantOnNode[j.NodeID], j.ID)
		}
	}
	nodeIDs := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		nodeIDs[n.ID] = true
	}
	for id := range wantOnNode {
		nodeIDs[id] = true
	}
	for id := range nodeIDs {
		if miss := setDiff(jobIDs(s.JobsOnNode(id)), wantOnNode[id]); miss != "" {
			vs = append(vs, Violation{
				Rule:   "index-consistent",
				Detail: fmt.Sprintf("JobsOnNode(%s) diverges from scan: %s", id, miss),
			})
		}
	}

	// ActiveNodes must be exactly the scan's active subset.
	var wantActive []string
	for _, n := range nodes {
		if n.Status == db.NodeActive {
			wantActive = append(wantActive, n.ID)
		}
	}
	var gotActive []string
	for _, n := range s.ActiveNodes() {
		gotActive = append(gotActive, n.ID)
	}
	if miss := setDiff(gotActive, wantActive); miss != "" {
		vs = append(vs, Violation{
			Rule:   "index-consistent",
			Detail: "ActiveNodes diverges from scan: " + miss,
		})
	}

	// Deep structural audit, for stores that materialize indexes.
	if a, ok := s.(interface{ AuditIndexes() []string }); ok {
		for _, p := range a.AuditIndexes() {
			vs = append(vs, Violation{Rule: "index-consistent", Detail: p})
		}
	}
	return vs
}

// jobIDs projects records onto their IDs.
func jobIDs(jobs []db.JobRecord) []string {
	out := make([]string, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.ID)
	}
	return out
}

// setDiff compares two ID multisets and describes the first mismatch
// ("" when equal).
func setDiff(got, want []string) string {
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		return fmt.Sprintf("%d results, scan finds %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("has %q where scan finds %q", g[i], w[i])
		}
	}
	return ""
}

// queuePrecedes reports whether a strictly precedes b in pending-queue
// order (priority descending, submission ascending, ID ascending); a
// result that lists a after b is therefore out of order.
func queuePrecedes(a, b db.JobRecord) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if !a.SubmittedAt.Equal(b.SubmittedAt) {
		return a.SubmittedAt.Before(b.SubmittedAt)
	}
	return a.ID < b.ID
}

// CheckpointSource is the slice of the checkpoint store the integrity
// check reads. Taking an interface lets sabotage tests prove the rule
// fires on a source that hands out broken chains.
type CheckpointSource interface {
	// RestoreChain returns the job's restore chain, oldest first.
	RestoreChain(jobID string) ([]checkpoint.Checkpoint, error)
}

// CheckCheckpoints audits checkpoint-integrity for the given jobs
// (callers pass the live set: pending, running, migrating): whatever
// damage the checkpoint store's backing blobs absorbed, every restore
// chain the platform can be handed must be structurally sound — a full
// snapshot first, each increment based on its predecessor, progress
// never regressing, for this job. "No checkpoint" (including "nothing
// restorable survived") is legitimate: the job restarts from scratch.
// A broken chain is not: it means corruption detection or generation
// fallback let damaged state through.
func CheckCheckpoints(cs CheckpointSource, jobs []db.JobRecord) []Violation {
	var vs []Violation
	for _, j := range jobs {
		chain, err := cs.RestoreChain(j.ID)
		if err != nil {
			if errors.Is(err, checkpoint.ErrNoCheckpoint) || errors.Is(err, checkpoint.ErrBadChain) {
				continue
			}
			vs = append(vs, Violation{
				Rule:   "checkpoint-integrity",
				Detail: fmt.Sprintf("job %s: restore chain unresolvable: %v", j.ID, err),
			})
			continue
		}
		if len(chain) == 0 {
			vs = append(vs, Violation{
				Rule:   "checkpoint-integrity",
				Detail: fmt.Sprintf("job %s: empty restore chain", j.ID),
			})
			continue
		}
		if chain[0].Incremental {
			vs = append(vs, Violation{
				Rule:   "checkpoint-integrity",
				Detail: fmt.Sprintf("job %s: restore chain starts at increment %d, not a full snapshot", j.ID, chain[0].Seq),
			})
		}
		for i, ck := range chain {
			if ck.JobID != j.ID {
				vs = append(vs, Violation{
					Rule:   "checkpoint-integrity",
					Detail: fmt.Sprintf("job %s: chain link %d belongs to job %q", j.ID, ck.Seq, ck.JobID),
				})
			}
			if i == 0 {
				continue
			}
			if !ck.Incremental || ck.BaseSeq != chain[i-1].Seq {
				vs = append(vs, Violation{
					Rule: "checkpoint-integrity",
					Detail: fmt.Sprintf("job %s: link %d does not build on its predecessor %d",
						j.ID, ck.Seq, chain[i-1].Seq),
				})
			}
			if ck.Progress.Step < chain[i-1].Progress.Step {
				vs = append(vs, Violation{
					Rule: "checkpoint-integrity",
					Detail: fmt.Sprintf("job %s: progress regresses along the chain (%d after %d)",
						j.ID, ck.Progress.Step, chain[i-1].Progress.Step),
				})
			}
		}
	}
	return vs
}

// CheckSkewLiveness audits skew-bounded-liveness: nodes whose only
// fault is a bounded clock offset — the caller passes exactly those,
// excluding nodes that are also crashed, partitioned or departed — must
// remain in service. Failure detection keys off receiver-side arrival
// times, so a sender's skewed wall clock must never get it marked
// unreachable.
func CheckSkewLiveness(s db.Store, skewedNodes []string) []Violation {
	var vs []Violation
	for _, id := range skewedNodes {
		n, err := s.GetNode(id)
		if err != nil {
			vs = append(vs, Violation{
				Rule:   "skew-bounded-liveness",
				Detail: fmt.Sprintf("skewed node %s unknown to the store: %v", id, err),
			})
			continue
		}
		if n.Status != db.NodeActive && n.Status != db.NodePaused {
			vs = append(vs, Violation{
				Rule:   "skew-bounded-liveness",
				Detail: fmt.Sprintf("node %s dropped to %s though its only fault is clock skew", id, n.Status),
			})
		}
	}
	return vs
}

// CheckEquivalence compares two store images record by record (nodes,
// jobs, allocations) via their canonical JSON encodings — the recovery
// byte-equivalence criterion: DiffStates in both directions. Monitoring
// samples are excluded: they are soft state, never logged, so a
// recovered store legitimately holds only the last checkpoint's
// history. Watermarks are compared by ordering only (a recovered store
// may not regress the mutation sequence).
func CheckEquivalence(before, after db.State) []Violation {
	var vs []Violation
	for _, d := range DiffStates(before, after) {
		vs = append(vs, Violation{Rule: "recovery-equivalence", Detail: d.String() + " after recovery"})
	}
	for _, d := range DiffStates(after, before) {
		if d.Missing {
			vs = append(vs, Violation{Rule: "recovery-equivalence", Detail: d.Table + " " + d.Key + " appeared after recovery"})
		}
	}
	if after.Watermark < before.Watermark {
		vs = append(vs, Violation{
			Rule: "recovery-equivalence",
			Detail: fmt.Sprintf("recovered watermark %d regressed below %d",
				after.Watermark, before.Watermark),
		})
	}
	return vs
}
