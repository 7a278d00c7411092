package core

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
)

// TestDirectAndAggregatedBeatCommitIdentically: a folded delta is, by
// the aggregator's fold contract, a beat with an empty report, and
// IngestAggregated promises that replaying it through heartbeatAt
// produces exactly what direct ingestion of that beat would have. Each
// case builds the same coordinator twice, delivers the same beat once
// directly and once as an aggregated delta, and requires the same reply,
// the same mutation stream (every stage's store writes, in order) and
// the same final state.
func TestDirectAndAggregatedBeatCommitIdentically(t *testing.T) {
	// strandJob records a running placement on n1 that the (silent,
	// empty-handed) agent does not report: placedAgo decides whether it
	// is inside the placement grace or provably lost.
	strandJob := func(placedAgo time.Duration) func(*beatRig) {
		return func(b *beatRig) {
			now := b.clock.Now()
			if err := b.store.InsertJob(db.JobRecord{ID: "job-000001", Kind: "batch", ImageName: "img",
				State: db.JobRunning, NodeID: "n1", DeviceID: "gpu0", PlacedAt: now.Add(-placedAgo)}); err != nil {
				b.t.Fatal(err)
			}
			b.store.RecordAllocation(db.AllocationRecord{JobID: "job-000001", NodeID: "n1", DeviceID: "gpu0", Start: now})
			b.coord.markDevice("n1", "gpu0", true)
		}
	}
	cases := []struct {
		name  string
		setup func(*beatRig)
		// replay delivers the beat twice; the second delivery is the one
		// compared.
		replay bool
		want   api.HeartbeatResponse
		// writes is the store traffic the beat must cause (through the
		// flush tick), so "identical" is never two empty streams.
		writes []db.MutationType
	}{
		{name: "steady state coalesces", want: api.HeartbeatResponse{Acknowledged: true},
			writes: []db.MutationType{db.MutBeat}},
		{name: "paused node resumes", want: api.HeartbeatResponse{Acknowledged: true},
			writes: []db.MutationType{db.MutNodePut},
			setup: func(b *beatRig) {
				_ = b.store.UpdateNode("n1", func(n *db.NodeRecord) { n.Status = db.NodePaused })
			}},
		{name: "lost placement is requeued", want: api.HeartbeatResponse{Acknowledged: true},
			writes: []db.MutationType{db.MutNodePut, db.MutNodePut, db.MutAllocClose, db.MutJobPut},
			setup:  strandJob(5 * time.Minute)},
		{name: "fresh placement is protected", want: api.HeartbeatResponse{Acknowledged: true},
			writes: []db.MutationType{db.MutNodePut},
			setup:  strandJob(time.Second)},
		{name: "replay is swallowed", replay: true, want: api.HeartbeatResponse{Acknowledged: true},
			writes: []db.MutationType{db.MutBeat}}, // the first delivery's advance, at the tick
		{name: "dead handle asks for registration", want: api.HeartbeatResponse{Reregister: true},
			setup: func(b *beatRig) {
				b.coord.mu.Lock()
				delete(b.coord.agents, "n1")
				b.coord.mu.Unlock()
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(aggregated bool) (reply api.HeartbeatResponse, stream, state string) {
				t.Helper()
				b := newBeatRig(t, time.Minute, db.New(0))
				b.addSilentNode("n1")
				b.addSilentNode("n2")
				b.clock.Advance(10 * time.Second)
				if tc.setup != nil {
					tc.setup(b)
				}
				var muts []db.Mutation
				defer b.store.AddMutationObserver(func(m db.Mutation) { muts = append(muts, m) })()
				req := b.beatReq("n1")
				deliver := func() api.HeartbeatResponse {
					if !aggregated {
						resp, err := b.coord.Heartbeat(req)
						if err != nil {
							t.Fatal(err)
						}
						return resp
					}
					resp, err := b.coord.IngestAggregated(api.AggregatedBeat{
						Envelope: req.Envelope, AggregatorID: "agg-1", WindowSeq: 1,
						Deltas: []api.AggBeatDelta{{NodeID: "n1", Token: req.Token,
							At: b.clock.Now(), BeatSeq: req.BeatSeq, Beats: 1}},
					})
					if err != nil || len(resp.SendFull) != 0 {
						t.Fatalf("IngestAggregated = %+v, %v", resp, err)
					}
					// The batch reply carries what the per-beat reply would
					// have: acked unless the node is told to re-register.
					rereg := len(resp.Reregister) == 1 && resp.Reregister[0] == "n1"
					return api.HeartbeatResponse{Acknowledged: !rereg, Reregister: rereg}
				}
				reply = deliver()
				if tc.replay {
					muts = nil
					reply = deliver()
				}
				b.clock.Advance(time.Minute) // past the coalescer's flush tick
				var writes []db.MutationType
				for _, m := range muts {
					writes = append(writes, m.Type)
				}
				if !slices.Equal(writes, tc.writes) {
					t.Errorf("aggregated=%v: store writes %v, want %v", aggregated, writes, tc.writes)
				}
				streamJSON, err := json.Marshal(muts)
				if err != nil {
					t.Fatal(err)
				}
				stateJSON, err := json.Marshal(b.store.ExportState())
				if err != nil {
					t.Fatal(err)
				}
				return reply, string(streamJSON), string(stateJSON)
			}
			direct, directStream, directState := run(false)
			agg, aggStream, aggState := run(true)
			direct.LeaderEpoch = 0 // the batch reply carries the epoch once, not per node
			if direct != tc.want || agg != tc.want {
				t.Errorf("replies: direct %+v, aggregated %+v, want %+v", direct, agg, tc.want)
			}
			if directStream != aggStream {
				t.Errorf("mutation streams differ:\n direct     %s\n aggregated %s", directStream, aggStream)
			}
			if directState != aggState {
				t.Errorf("final states differ:\n direct     %s\n aggregated %s", directState, aggState)
			}
		})
	}
}
