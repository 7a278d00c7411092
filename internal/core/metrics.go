package core

import (
	"strings"
	"sync"

	"gpunion/internal/db"
	"gpunion/internal/monitor"
)

// coordMetrics is the coordinator's full-surface instrumentation: the
// counters and histograms hot paths feed inline (pre-resolved handles,
// no registry lookups per request), plus refresh-on-scrape gauges
// derived from subsystem state — job-state indexes, leadership,
// scheduler candidate-cache effectiveness. The cache's lifetime totals
// are re-exported as counters via delta tracking so scrapes stay
// monotonic even though the coordinator polls rather than intercepts.
type coordMetrics struct {
	heartbeats    *monitor.Counter
	heartbeatDups *monitor.Counter
	batchFill     *monitor.Histogram
	beatBatch     *monitor.Histogram
	leaderChanges *monitor.Counter
	fencedWrites  *monitor.Counter
	aggBatches    *monitor.Counter
	aggDeltas     *monitor.Counter
	aggPassthru   *monitor.Counter

	shipLagRecords *monitor.Gauge
	shipLagBytes   *monitor.Gauge
	leaderEpoch    *monitor.Gauge
	leading        *monitor.Gauge

	poolHits   *monitor.Counter
	poolMisses *monitor.Counter

	reg *monitor.Registry

	mu sync.Mutex
	// mutations caches one counter handle per mutation type so the
	// store's mutation hook — called on every committed write — does a
	// map hit, not a registry registration.
	mutations map[db.MutationType]*monitor.Counter
	jobGauges map[db.JobState]*monitor.Gauge
	// healthEvents caches one counter per (kind, severity) pair and
	// nodeHealth one gauge per node, both registered lazily on first
	// sight — same reasoning as mutations: the heartbeat ingest path
	// must do a map hit, not a registry registration.
	healthEvents map[string]*monitor.Counter
	nodeHealth   map[string]*monitor.Gauge
	// Last-seen values for the polled lifetime totals (delta-Add keeps
	// the exported counters monotonic across scrapes).
	lastPoolHits, lastPoolMisses uint64
}

// jobStates is every state a job record can be in, in lifecycle order;
// refresh exports one per-state gauge for each.
var jobStates = []db.JobState{
	db.JobPending, db.JobRunning, db.JobMigrating,
	db.JobCompleted, db.JobFailed, db.JobKilled,
}

// newCoordMetrics registers the coordinator's instruments on reg.
func newCoordMetrics(reg *monitor.Registry) (*coordMetrics, error) {
	m := &coordMetrics{
		reg:          reg,
		mutations:    make(map[db.MutationType]*monitor.Counter),
		jobGauges:    make(map[db.JobState]*monitor.Gauge),
		healthEvents: make(map[string]*monitor.Counter),
		nodeHealth:   make(map[string]*monitor.Gauge),
	}
	var err error
	register := func(dst **monitor.Counter, name, help string) {
		if err != nil {
			return
		}
		*dst, err = reg.Counter(name, help, nil)
	}
	gauge := func(dst **monitor.Gauge, name, help string) {
		if err != nil {
			return
		}
		*dst, err = reg.Gauge(name, help, nil)
	}
	register(&m.heartbeats, "gpunion_heartbeats_total",
		"Heartbeat reports accepted for processing")
	register(&m.heartbeatDups, "gpunion_heartbeat_duplicates_total",
		"Heartbeat replays swallowed by the beat-sequence guard")
	register(&m.leaderChanges, "gpunion_leader_transitions_total",
		"Leadership acquisitions and step-downs on this replica")
	register(&m.fencedWrites, "gpunion_fenced_writes_total",
		"Mutating requests rejected because this replica is not the leader")
	register(&m.aggBatches, "gpunion_agg_batches_total",
		"Aggregated heartbeat batches ingested from rack aggregators")
	register(&m.aggDeltas, "gpunion_agg_deltas_total",
		"Rolled-up per-node liveness deltas ingested from aggregated batches")
	register(&m.aggPassthru, "gpunion_agg_passthrough_total",
		"State-changing beats forwarded verbatim inside aggregated batches")
	register(&m.poolHits, "gpunion_sched_pool_hits_total",
		"Scheduling cycles served from the cached candidate set")
	register(&m.poolMisses, "gpunion_sched_pool_misses_total",
		"Scheduling cycles that rebuilt the candidate set")
	gauge(&m.shipLagRecords, "gpunion_wal_ship_lag_records",
		"Records the standby has not yet applied (leader LSN minus follower LSN)")
	gauge(&m.shipLagBytes, "gpunion_wal_ship_lag_bytes",
		"On-disk WAL bytes the shipper cursor has not yet consumed")
	gauge(&m.leaderEpoch, "gpunion_leader_epoch",
		"Fencing epoch of this replica's current (or last) leadership term")
	gauge(&m.leading, "gpunion_leading",
		"1 while this replica believes it holds the lease, else 0")
	if err != nil {
		return nil, err
	}
	m.batchFill, err = reg.Histogram("gpunion_sched_batch_fill",
		"Pending requests drained per scheduling cycle",
		[]float64{1, 2, 4, 8, 16, 32, 64}, nil)
	if err != nil {
		return nil, err
	}
	m.beatBatch, err = reg.Histogram("gpunion_heartbeat_coalesce_batch_size",
		"No-op heartbeats committed per coalesced flush",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, nil)
	if err != nil {
		return nil, err
	}
	for _, st := range jobStates {
		g, gerr := reg.Gauge("gpunion_jobs",
			"Jobs currently in each lifecycle state",
			map[string]string{"state": string(st)})
		if gerr != nil {
			return nil, gerr
		}
		m.jobGauges[st] = g
	}
	return m, nil
}

// observeMutation counts one committed store mutation under its type
// label. Fed by the store's observer feed, so it runs after the table
// lock drops.
func (m *coordMetrics) observeMutation(typ db.MutationType) {
	m.mu.Lock()
	ctr := m.mutations[typ]
	m.mu.Unlock()
	if ctr == nil {
		c, err := m.reg.Counter("gpunion_store_mutations_total",
			"Committed store mutations by type",
			map[string]string{"type": string(typ)})
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.mutations[typ] == nil {
			m.mutations[typ] = c
		}
		ctr = m.mutations[typ]
		m.mu.Unlock()
	}
	ctr.Inc()
}

// observeHealthEvent counts one ingested health event under its
// (kind, severity) labels.
func (m *coordMetrics) observeHealthEvent(kind, severity string) {
	key := kind + "|" + severity
	m.mu.Lock()
	ctr := m.healthEvents[key]
	m.mu.Unlock()
	if ctr == nil {
		c, err := m.reg.Counter("gpunion_health_events_total",
			"Health events ingested from agents by kind and severity",
			map[string]string{"kind": kind, "severity": severity})
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.healthEvents[key] == nil {
			m.healthEvents[key] = c
		}
		ctr = m.healthEvents[key]
		m.mu.Unlock()
	}
	ctr.Inc()
}

// setNodeHealth exports one node's current health score.
func (m *coordMetrics) setNodeHealth(nodeID string, score float64) {
	m.mu.Lock()
	g := m.nodeHealth[nodeID]
	m.mu.Unlock()
	if g == nil {
		ng, err := m.reg.Gauge("gpunion_node_health",
			"Per-node health score in (0, 1]; 1 is fully healthy",
			map[string]string{"node": nodeID})
		if err != nil {
			return
		}
		m.mu.Lock()
		if m.nodeHealth[nodeID] == nil {
			m.nodeHealth[nodeID] = ng
		}
		g = m.nodeHealth[nodeID]
		m.mu.Unlock()
	}
	g.Set(score)
}

// refresh recomputes every derived gauge and rolls the polled lifetime
// totals forward. The coordinator calls it on each metrics scrape, so
// idle systems pay nothing and scrapes see current state.
func (c *Coordinator) refreshGauges() {
	m := c.met
	for _, st := range jobStates {
		m.jobGauges[st].Set(float64(c.db.CountJobsInState(st)))
	}
	m.leaderEpoch.Set(float64(c.Epoch()))
	if c.Leading() {
		m.leading.Set(1)
	} else {
		m.leading.Set(0)
	}
	hits, misses := c.sched.CacheStats()
	m.mu.Lock()
	dh, dm := hits-m.lastPoolHits, misses-m.lastPoolMisses
	m.lastPoolHits, m.lastPoolMisses = hits, misses
	m.mu.Unlock()
	m.poolHits.Add(float64(dh))
	m.poolMisses.Add(float64(dm))
}

// MetricsSnapshot refreshes the derived gauges and renders the full
// registry in the Prometheus text exposition format — the same output
// GET /v1/metrics serves.
func (c *Coordinator) MetricsSnapshot() (string, error) {
	c.refreshGauges()
	var sb strings.Builder
	if err := c.metrics.WriteText(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// ObserveReplication publishes the log-shipping backlog: how many
// records the standby still has to apply and how many on-disk WAL
// bytes the shipper has not consumed. The replication driver (the
// harness, or the daemon's shipping loop) owns both numbers — the
// coordinator only exports them.
func (c *Coordinator) ObserveReplication(lagRecords uint64, lagBytes int64) {
	c.met.shipLagRecords.Set(float64(lagRecords))
	c.met.shipLagBytes.Set(float64(lagBytes))
}
