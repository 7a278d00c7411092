package core

import (
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/migration"
	"gpunion/internal/monitor"
	"gpunion/internal/obs"
)

// Gray-failure handling: agents report typed health events (XID errors,
// thermal/power excursions, throughput slowdowns) on their heartbeats;
// the coordinator folds each batch into a per-node health score that is
// persisted through the store's mutation stream (MutNodeHealth), so the
// score survives crash recovery and standby promotion exactly like any
// other record state. The scheduler consumes the score two ways:
// degraded nodes rank lower in every placement decision, and nodes
// below monitor.UnhealthyBelow are excluded from the candidate set
// entirely. Crossing that threshold additionally triggers a predictive
// checkpoint-then-migrate drain — the node is still alive, so each job
// checkpoints in place and resumes elsewhere with no lost work, unlike
// the emergency path that fires only after the node has gone silent.

// maxRecentHealth bounds the per-node diagnostic ring served by the
// health endpoint.
const maxRecentHealth = 16

// healthDecayCeiling stops the sweep's decay records once a node's
// score has recovered this close to fully healthy — the asymptotic
// tail is not worth a WAL frame per sweep.
const healthDecayCeiling = 0.999

// ingestHealth folds one beat's health events into the node's persisted
// score. The fold runs inside the store's critical section (see
// db.Store.RecordHealth), so concurrent beats serialize with correct
// previous values; the committed mutation carries both the resulting
// score (replayed verbatim — recovery is byte-equal, no float
// re-derivation) and the events (audit evidence the
// health-score-consistent invariant refolds).
func (c *Coordinator) ingestHealth(nodeID string, events []gpu.HealthEvent, now time.Time) {
	before := 1.0
	score, ok := c.db.RecordHealth(nodeID, now, events, func(prev float64, prevAt time.Time) float64 {
		if !prevAt.IsZero() {
			before = prev
		}
		return monitor.FoldHealth(prev, prevAt, now, events)
	})
	if !ok {
		return // node gone, or a fold at this instant already committed
	}
	for _, ev := range events {
		c.met.observeHealthEvent(string(ev.Kind), string(ev.Severity))
	}
	c.met.setNodeHealth(nodeID, score)
	c.rememberHealth(nodeID, events)
	if before >= monitor.UnhealthyBelow && score < monitor.UnhealthyBelow {
		c.trace.Record(obs.KindHealthDegraded, "", nodeID, map[string]string{
			"score":  strconv.FormatFloat(score, 'f', 4, 64),
			"events": strconv.Itoa(len(events)),
		})
		c.drainUnhealthy(nodeID, now)
	}
}

// rememberHealth appends events to the node's diagnostic ring, keeping
// only the most recent maxRecentHealth entries.
func (c *Coordinator) rememberHealth(nodeID string, events []gpu.HealthEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recentHealth == nil {
		c.recentHealth = make(map[string][]gpu.HealthEvent)
	}
	ring := append(c.recentHealth[nodeID], events...)
	if len(ring) > maxRecentHealth {
		ring = append([]gpu.HealthEvent(nil), ring[len(ring)-maxRecentHealth:]...)
	}
	c.recentHealth[nodeID] = ring
}

// drainUnhealthy predictively moves work off a live node whose health
// score crossed below the unhealthy threshold: its running jobs are
// checkpointed in place — the whole point of acting before the node
// dies is that its devices still work — and relocated as one batch
// (relocateLive). A job with no target stays where it is, and the sweep
// backstop retries while the node remains unhealthy. New placements
// never land here meanwhile — the scheduler excludes nodes below the
// threshold.
func (c *Coordinator) drainUnhealthy(nodeID string, now time.Time) {
	var jobs []db.JobRecord
	for _, job := range c.db.JobsOnNode(nodeID) {
		if job.State == db.JobRunning {
			jobs = append(jobs, job)
		}
	}
	c.relocateLive(jobs, migration.ReasonPredictive, now)
}

// sweepHealth is the periodic half of the health pipeline, run from
// sweep: scores only move on mutations, so recovery toward healthy is
// driven by empty-events decay folds — WAL-logged like any fold, so
// the invariant can reproduce them — and nodes that crossed the
// threshold while drain targets were scarce are retried.
func (c *Coordinator) sweepHealth(now time.Time) {
	// Decay folds stamp a hair before now: the sweep and the agents'
	// beats share the heartbeat cadence, so a decay fold at exactly now
	// would advance HealthAt past a beat-carried event fold arriving at
	// the same instant, and the store's forward-only guard would drop
	// the events. The backstop must never pre-empt fresher signal.
	decayAt := now.Add(-time.Millisecond)
	for _, n := range c.db.ListNodes() {
		if n.HealthAt.IsZero() || (n.Status != db.NodeActive && n.Status != db.NodePaused) {
			continue
		}
		if n.Health < healthDecayCeiling && n.HealthAt.Before(decayAt) {
			score, ok := c.db.RecordHealth(n.ID, decayAt, nil, func(prev float64, prevAt time.Time) float64 {
				return monitor.FoldHealth(prev, prevAt, decayAt, nil)
			})
			if ok {
				c.met.setNodeHealth(n.ID, score)
				n.Health = score
			}
		}
		if n.Status == db.NodeActive && n.HealthScore() < monitor.UnhealthyBelow {
			c.drainUnhealthy(n.ID, now)
		}
	}
}

// NodeHealths reports every node's current health standing plus its
// recent ingested events (the gpuctl health view).
func (c *Coordinator) NodeHealths() []api.NodeHealthSummary {
	recs := c.db.ListNodes()
	out := make([]api.NodeHealthSummary, 0, len(recs))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range recs {
		out = append(out, api.NodeHealthSummary{
			NodeID:       n.ID,
			Status:       n.Status,
			Score:        n.HealthScore(),
			UpdatedAt:    n.HealthAt,
			Unhealthy:    n.HealthScore() < monitor.UnhealthyBelow,
			RecentEvents: append([]gpu.HealthEvent(nil), c.recentHealth[n.ID]...),
		})
	}
	return out
}
