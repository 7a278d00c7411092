package core

import (
	"maps"
	"slices"
	"sort"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
)

// Aggregated heartbeat ingress: the coordinator-side half of the
// rack/zone aggregation tier (internal/aggregator). An aggregator acks
// steady-state no-op beats locally and forwards one AggregatedBeat per
// flush window; the coordinator replays the roll-up through the exact
// same per-beat path direct ingestion uses.
//
// Equivalence by construction: a folded delta is, by the aggregator's
// fold contract, a beat whose report was empty — no telemetry, no
// running jobs, no health events, not paused. IngestAggregated
// reconstructs precisely that request (same machine, token and
// sequence) and hands it to heartbeatAt with the aggregator's receipt
// time, so the store mutations, monitor updates, dedup high-water
// marks and reconciliation decisions are the ones direct ingestion of
// the original beat would have produced. Pass-through beats are the
// originals and replay verbatim. The per-node BeatSeq guard makes the
// whole batch idempotent: a replayed or partially re-sent window folds
// to a no-op, which is also why a batch aborted mid-way by a fencing
// error is safe to retry against the new leader.

// IngestAggregated processes one aggregator flush window. Pass-through
// beats run first, in receipt order: within a window they carry higher
// sequences than any delta folded before them for the same node, and a
// delta that lost the race (its window flushed after a newer direct or
// pass-through beat) is absorbed by the sequence guard. Per-node
// directives — re-registration demands, nodes whose beats must stop
// folding — fan back through the response for the aggregator to relay.
func (c *Coordinator) IngestAggregated(batch api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	if err := c.fence(batch.LeaderEpoch); err != nil {
		return api.AggregatedBeatResponse{}, err
	}
	c.met.aggBatches.Inc()
	resp := api.AggregatedBeatResponse{Acknowledged: true}
	reregister := make(map[string]bool)
	sendFull := make(map[string]bool)

	// replay runs one beat through the direct path and files the node's
	// directive. A per-beat rejection (bad token or similar) means the
	// aggregator must stop folding this node, so the agent sees the error
	// directly.
	replay := func(req api.HeartbeatRequest, at time.Time) {
		hr, err := c.heartbeatAt(req, at)
		if err != nil {
			sendFull[req.MachineID] = true
		} else if hr.Reregister {
			reregister[req.MachineID] = true
		}
	}
	for _, pb := range batch.Beats {
		// Each forwarded beat keeps its own envelope: an agent that
		// observed a newer leader than its aggregator must still depose a
		// stale coordinator, exactly as on the direct path. A fencing
		// failure aborts the window; the sequence guard absorbs the
		// already-applied prefix when the aggregator retries.
		if err := c.fence(pb.Beat.LeaderEpoch); err != nil {
			return api.AggregatedBeatResponse{}, err
		}
		c.met.aggPassthru.Inc()
		replay(pb.Beat, pb.At)
	}

	// Deltas in deterministic order; the aggregator sorts them, but the
	// coordinator does not trust the wire.
	deltas := make([]api.AggBeatDelta, len(batch.Deltas))
	copy(deltas, batch.Deltas)
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].NodeID < deltas[j].NodeID })
	for _, d := range deltas {
		c.met.aggDeltas.Inc()
		// A folded delta is evidence of past steady-state liveness, not
		// a fresh claim of presence. If the node's membership
		// transitioned while the delta sat in its window — it departed,
		// was swept unreachable, or its record is gone — replaying the
		// delta would resurrect the node on stale evidence no direct
		// deployment would accept at this point (the direct analogue,
		// the coalescing buffer, drops exactly these advances on
		// departure). Bounce the node to a fresh registration instead.
		if rec, gerr := c.db.GetNode(d.NodeID); gerr != nil ||
			rec.Status == db.NodeDeparted || rec.Status == db.NodeUnreachable {
			reregister[d.NodeID] = true
			continue
		}
		replay(api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: batch.LeaderEpoch},
			MachineID: d.NodeID,
			Token:     d.Token,
			BeatSeq:   d.BeatSeq,
		}, d.At)
	}

	resp.Reregister = slices.Sorted(maps.Keys(reregister))
	resp.SendFull = slices.Sorted(maps.Keys(sendFull))
	resp.LeaderEpoch = c.Epoch()
	return resp, nil
}
