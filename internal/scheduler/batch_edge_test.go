package scheduler

import (
	"errors"
	"testing"

	"gpunion/internal/db"
)

// TestPlaceBatchEdgeCases drives PlaceBatch through the degenerate
// shapes a chaotic fleet produces: empty and zero-capacity pools,
// batches deeper than capacity, duplicate job IDs in one cycle, and
// paused/exhausted nodes.
func TestPlaceBatchEdgeCases(t *testing.T) {
	busyNode := func(id string) db.NodeRecord {
		n := batchNodes(id)[0]
		n.GPUs[0].Allocated = true
		return n
	}
	pausedNode := func(id string) db.NodeRecord {
		n := batchNodes(id)[0]
		n.Status = db.NodePaused
		return n
	}

	cases := []struct {
		name  string
		reqs  []Request
		nodes []db.NodeRecord
		// wantPlaced[i] is whether request i must place; everything
		// else must fail with ErrNoPlacement.
		wantPlaced []bool
	}{
		{
			name:       "empty batch",
			reqs:       nil,
			nodes:      batchNodes("a"),
			wantPlaced: nil,
		},
		{
			name:       "no nodes at all",
			reqs:       []Request{batchReq("j1"), batchReq("j2")},
			nodes:      nil,
			wantPlaced: []bool{false, false},
		},
		{
			name:       "zero-capacity pool: every device allocated",
			reqs:       []Request{batchReq("j1"), batchReq("j2")},
			nodes:      []db.NodeRecord{busyNode("a"), busyNode("b")},
			wantPlaced: []bool{false, false},
		},
		{
			name:       "zero-capacity pool: nodes paused",
			reqs:       []Request{batchReq("j1")},
			nodes:      []db.NodeRecord{pausedNode("a"), pausedNode("b")},
			wantPlaced: []bool{false},
		},
		{
			name: "batch far larger than pool",
			reqs: []Request{batchReq("j1"), batchReq("j2"), batchReq("j3"),
				batchReq("j4"), batchReq("j5")},
			nodes:      batchNodes("a", "b"),
			wantPlaced: []bool{true, true, false, false, false},
		},
		{
			name:       "duplicate job IDs get distinct devices",
			reqs:       []Request{batchReq("dup"), batchReq("dup"), batchReq("dup")},
			nodes:      batchNodes("a", "b"),
			wantPlaced: []bool{true, true, false},
		},
		{
			name:       "mixed pool: paused and busy nodes excluded",
			reqs:       []Request{batchReq("j1"), batchReq("j2")},
			nodes:      []db.NodeRecord{pausedNode("a"), busyNode("b"), batchNodes("c")[0]},
			wantPlaced: []bool{true, false},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(&RoundRobin{})
			results := s.PlaceBatch(tc.reqs, tc.nodes, batchT0)
			if len(results) != len(tc.reqs) {
				t.Fatalf("results = %d, want one per request (%d)", len(results), len(tc.reqs))
			}
			used := make(map[deviceKey]bool)
			for i, res := range results {
				if tc.wantPlaced[i] {
					if res.Err != nil {
						t.Fatalf("request %d should place: %v", i, res.Err)
					}
					key := deviceKey{res.Placement.NodeID, res.Placement.DeviceID}
					if used[key] {
						t.Fatalf("request %d double-booked %v", i, key)
					}
					used[key] = true
					for _, n := range tc.nodes {
						if n.ID == res.Placement.NodeID && n.Status != db.NodeActive {
							t.Fatalf("request %d placed on %s node %s", i, n.Status, n.ID)
						}
					}
				} else if !errors.Is(res.Err, ErrNoPlacement) {
					t.Fatalf("request %d: err = %v, want ErrNoPlacement", i, res.Err)
				}
			}
		})
	}
}

// TestPlaceBatchReservationRollback: reservations live only inside one
// PlaceBatch call. When the caller fails to commit (launch error), it
// simply does not mark the device allocated — and the next batch must
// be able to hand the same device out again. A leaked reservation
// would strand the device forever.
func TestPlaceBatchReservationRollback(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a")

	first := s.PlaceBatch([]Request{batchReq("j1")}, nodes, batchT0)
	if first[0].Err != nil {
		t.Fatal(first[0].Err)
	}
	// Commit fails: the caller leaves the node view untouched (no
	// Allocated flip). A second cycle must re-offer the same device to
	// a different job.
	second := s.PlaceBatch([]Request{batchReq("j2")}, nodes, batchT0)
	if second[0].Err != nil {
		t.Fatalf("device stayed reserved after failed commit: %v", second[0].Err)
	}
	if second[0].Placement.NodeID != first[0].Placement.NodeID ||
		second[0].Placement.DeviceID != first[0].Placement.DeviceID {
		t.Fatalf("expected the rolled-back device %v, got %v",
			first[0].Placement, second[0].Placement)
	}
	// And once the commit *does* happen (device marked allocated), the
	// device must stop being offered.
	nodes[0].GPUs[0].Allocated = true
	third := s.PlaceBatch([]Request{batchReq("j3")}, nodes, batchT0)
	if !errors.Is(third[0].Err, ErrNoPlacement) {
		t.Fatalf("committed device re-offered: %+v, %v", third[0].Placement, third[0].Err)
	}
}
