package invariant

import (
	"fmt"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/monitor"
)

// Gray-failure invariants. Three rules audit the health pipeline:
//
//   - health-score-consistent: every persisted health score is exactly
//     the deterministic fold of the events the mutation stream carries
//     — the same fold as beat-delta-equivalence (stream.go). A fold applied twice
//     (duplicate delivery), a dropped event batch, or a score that
//     drifted through replay or promotion all surface as a divergence;
//   - no-placement-on-unhealthy: the scheduler never places new work on
//     a node whose health score sits below monitor.UnhealthyBelow;
//   - degraded-node-drained: a node that has been unhealthy for longer
//     than the drain grace holds no running jobs while a feasible free
//     device exists on a healthy node — predictive checkpoint-then-
//     migrate must actually move the work, not just stop new work.

// healthPoint is one node's folded health state at a stream position.
type healthPoint struct {
	score float64
	at    time.Time
}

// healthRule is health-score-consistent: every fold is refolded with
// monitor.FoldHealth.
// Node images install their after-image verbatim; health records are
// refolded. The recomputation is exact: FoldHealth is deterministic,
// the carried score is its after-image, and replay installs that image
// verbatim — so any inequality, including across crash recovery and
// standby promotion, is a platform bug, not float noise.
func healthRule() deltaRule[healthPoint] {
	return deltaRule[healthPoint]{
		rule:  "health-score-consistent",
		noun:  "health fold",
		typ:   db.MutNodeHealth,
		image: func(n *db.NodeRecord) healthPoint { return healthPoint{score: n.Health, at: n.HealthAt} },
		at:    func(p healthPoint) time.Time { return p.at },
		empty: "health record at LSN %d carries no payload",
		deltas: func(m db.Mutation) []nodeDelta[healthPoint] {
			h := m.Health
			if h == nil {
				return nil
			}
			return []nodeDelta[healthPoint]{{
				node: h.NodeID,
				next: healthPoint{score: h.Score, at: h.At},
				check: func(prev healthPoint) string {
					// Empty events are legitimate: the sweep's decay records.
					want := monitor.FoldHealth(prev.score, prev.at, h.At, h.Events)
					if want == h.Score {
						return ""
					}
					return fmt.Sprintf("carries score %v, refolding its %d events yields %v",
						h.Score, len(h.Events), want)
				},
			}}
		},
		diverges: func(want healthPoint, n *db.NodeRecord) string {
			if want.score == n.Health && want.at.Equal(n.HealthAt) {
				return ""
			}
			return fmt.Sprintf("health diverges: folding the stream yields %v at %s, the store holds %v at %s",
				want.score, want.at.Format(time.RFC3339Nano),
				n.Health, n.HealthAt.Format(time.RFC3339Nano))
		},
	}
}

// HealthAudit records a live store's stream and audits
// health-score-consistent: Check folds it with healthRule (the
// parameters the platform fixes to the defaults) against the store's
// current node table.
type HealthAudit struct{ streamAudit[healthPoint] }

// NewHealthAudit snapshots the store's current health state and
// subscribes to its mutation stream, like NewBeatAudit.
func NewHealthAudit(s db.Store) (*HealthAudit, func()) {
	a := &HealthAudit{}
	return a, a.attach(s, healthRule())
}

// CheckNoPlacementOnUnhealthy audits that the scheduler honors the
// unhealthy exclusion: no running job was placed after its node's
// latest health fold while that node sits below the drain threshold.
// Jobs placed before the fold are legitimate — they are the drain's
// work, not the scheduler's mistake.
func CheckNoPlacementOnUnhealthy(s db.Store) []Violation {
	var vs []Violation
	nodes := s.ListNodes()
	for i := range nodes {
		n := &nodes[i]
		if n.HealthScore() >= monitor.UnhealthyBelow {
			continue
		}
		for _, j := range s.JobsOnNode(n.ID) {
			if j.State != db.JobRunning {
				continue
			}
			if j.PlacedAt.After(n.HealthAt) {
				vs = append(vs, Violation{
					Rule: "no-placement-on-unhealthy",
					Detail: fmt.Sprintf("job %s placed on node %s at %s, after its health dropped to %v at %s",
						j.ID, n.ID, j.PlacedAt.Format(time.RFC3339Nano),
						n.HealthScore(), n.HealthAt.Format(time.RFC3339Nano)),
				})
			}
		}
	}
	return vs
}

// CheckDegradedDrained audits that predictive drain actually moves
// work: an Active node that has sat below the unhealthy threshold for
// longer than grace must not still host a running job when a feasible
// free device (memory and capability both sufficient) exists on a
// healthy active node. Without spare capacity the job legitimately
// stays — a degraded node beats no node.
//
// unhealthySince maps node ID to when the auditor first observed the
// node below the threshold; the caller maintains it across audit
// points (the store only records each node's last fold time, not its
// crossing time). Nodes absent from the map are skipped: the crossing
// is too recent for the drain to owe an answer yet.
func CheckDegradedDrained(s db.Store, unhealthySince map[string]time.Time,
	now time.Time, grace time.Duration) []Violation {
	var vs []Violation
	nodes := s.ListNodes()
	for i := range nodes {
		n := &nodes[i]
		if n.Status != db.NodeActive || n.HealthScore() >= monitor.UnhealthyBelow {
			continue
		}
		since, ok := unhealthySince[n.ID]
		if !ok || now.Sub(since) <= grace {
			continue
		}
		for _, j := range s.JobsOnNode(n.ID) {
			if j.State != db.JobRunning {
				continue
			}
			if !spareDeviceFor(j, nodes, n.ID) {
				continue
			}
			vs = append(vs, Violation{
				Rule: "degraded-node-drained",
				Detail: fmt.Sprintf("job %s still runs on node %s (score %v), unhealthy for %v, with a feasible free device elsewhere",
					j.ID, n.ID, n.HealthScore(), now.Sub(since)),
			})
		}
	}
	return vs
}

// spareDeviceFor reports whether any healthy active node other than
// exclude offers a free device that fits the job.
func spareDeviceFor(j db.JobRecord, nodes []db.NodeRecord, exclude string) bool {
	need := gpu.ComputeCapability{Major: j.CapabilityMajor, Minor: j.CapabilityMinor}
	for i := range nodes {
		n := &nodes[i]
		if n.ID == exclude || n.Status != db.NodeActive ||
			n.HealthScore() < monitor.UnhealthyBelow {
			continue
		}
		for _, g := range n.GPUs {
			if g.Allocated || g.MemoryMiB < j.GPUMemMiB {
				continue
			}
			have := gpu.ComputeCapability{Major: g.CapabilityMajor, Minor: g.CapabilityMinor}
			if have.AtLeast(need) {
				return true
			}
		}
	}
	return false
}
