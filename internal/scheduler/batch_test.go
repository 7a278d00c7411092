package scheduler

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

var batchT0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

// batchNodes builds n active nodes with one free 24 GiB device each.
func batchNodes(ids ...string) []db.NodeRecord {
	var out []db.NodeRecord
	for _, id := range ids {
		out = append(out, db.NodeRecord{
			ID: id, Status: db.NodeActive,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: batchT0,
		})
	}
	return out
}

func batchReq(jobID string) Request {
	return Request{JobID: jobID, GPUMemMiB: 8192,
		Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
}

func TestPlaceBatchNoDoubleBooking(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a", "b", "c")
	results := s.PlaceBatch([]Request{batchReq("j1"), batchReq("j2"), batchReq("j3")}, nodes, batchT0)
	used := make(map[string]bool)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		key := res.Placement.NodeID + "/" + res.Placement.DeviceID
		if used[key] {
			t.Fatalf("device %s double-booked within batch", key)
		}
		used[key] = true
	}
}

func TestPlaceBatchExhaustsCapacity(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a", "b")
	results := s.PlaceBatch([]Request{batchReq("j1"), batchReq("j2"), batchReq("j3")}, nodes, batchT0)
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("first two should place: %v, %v", results[0].Err, results[1].Err)
	}
	if !errors.Is(results[2].Err, ErrNoPlacement) {
		t.Fatalf("third should fail with ErrNoPlacement, got %v", results[2].Err)
	}
}

// TestPlaceBatchPartialFailure: an infeasible member must not disturb
// the rest of the batch, and must hold no reservation.
func TestPlaceBatchPartialFailure(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a", "b")
	huge := batchReq("j-huge")
	huge.GPUMemMiB = 1 << 30 // fits nowhere
	results := s.PlaceBatch([]Request{batchReq("j1"), huge, batchReq("j2")}, nodes, batchT0)
	if results[0].Err != nil {
		t.Fatalf("j1: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrNoPlacement) {
		t.Fatalf("j-huge err = %v, want ErrNoPlacement", results[1].Err)
	}
	// j2 still gets the remaining device — the failed member reserved
	// nothing.
	if results[2].Err != nil {
		t.Fatalf("j2: %v", results[2].Err)
	}
	if results[2].Placement.NodeID == results[0].Placement.NodeID {
		t.Fatal("j2 landed on j1's device")
	}
}

func TestPlaceBatchHonorsAvoidNodes(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a", "b", "c")
	r1 := batchReq("j1")
	r1.AvoidNodes = []string{"a", "b"}
	r2 := batchReq("j2")
	r2.AvoidNodes = []string{"c"}
	results := s.PlaceBatch([]Request{r1, r2}, nodes, batchT0)
	if results[0].Err != nil || results[0].Placement.NodeID != "c" {
		t.Fatalf("j1 placement = %+v, %v (want node c)", results[0].Placement, results[0].Err)
	}
	if results[1].Err != nil || results[1].Placement.NodeID == "c" {
		t.Fatalf("j2 placement = %+v, %v (must avoid c)", results[1].Placement, results[1].Err)
	}
}

func TestPlaceBatchHonorsPreferNode(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := batchNodes("a", "b", "c")
	r1 := batchReq("j1")
	r1.PreferNode = "b"
	r2 := batchReq("j2")
	r2.PreferNode = "b" // b is taken by j1: j2 must fall back, not fail
	results := s.PlaceBatch([]Request{r1, r2}, nodes, batchT0)
	if results[0].Err != nil || results[0].Placement.NodeID != "b" {
		t.Fatalf("j1 placement = %+v, %v (want preferred node b)", results[0].Placement, results[0].Err)
	}
	if results[1].Err != nil || results[1].Placement.NodeID == "b" {
		t.Fatalf("j2 placement = %+v, %v (b already reserved)", results[1].Placement, results[1].Err)
	}
}

// TestPlaceBatchRoundRobinSpreads: the rotation must advance across
// batch members exactly as it does across single placements.
func TestPlaceBatchRoundRobinSpreads(t *testing.T) {
	nodes := []db.NodeRecord{}
	for _, id := range []string{"a", "b", "c"} {
		n := batchNodes(id)[0]
		n.GPUs = append(n.GPUs, db.GPUInfo{DeviceID: "gpu1", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6})
		nodes = append(nodes, n)
	}
	s := New(&RoundRobin{})
	results := s.PlaceBatch([]Request{batchReq("j1"), batchReq("j2"), batchReq("j3")}, nodes, batchT0)
	seen := make(map[string]int)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		seen[res.Placement.NodeID]++
	}
	// Six free devices on three nodes: round-robin must touch all three
	// nodes before revisiting any.
	if len(seen) != 3 {
		t.Fatalf("round-robin batch used %d nodes (%v), want 3", len(seen), seen)
	}
}

// TestPlaceBatchMatchesSequentialSchedule: a batch over a static node
// view must produce the same placements as the same requests scheduled
// one at a time (with in-flight devices marked allocated between
// calls).
func TestPlaceBatchMatchesSequentialSchedule(t *testing.T) {
	mk := func() []db.NodeRecord { return batchNodes("a", "b", "c", "d") }
	reqs := []Request{batchReq("j1"), batchReq("j2"), batchReq("j3"), batchReq("j4")}

	batchS := New(&RoundRobin{})
	batch := batchS.PlaceBatch(reqs, mk(), batchT0)

	seqS := New(&RoundRobin{})
	nodes := mk()
	for i, req := range reqs {
		p, err := seqS.Schedule(req, nodes, batchT0)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil || batch[i].Placement != p {
			t.Fatalf("request %d: batch %+v (%v) != sequential %+v",
				i, batch[i].Placement, batch[i].Err, p)
		}
		for ni := range nodes {
			if nodes[ni].ID != p.NodeID {
				continue
			}
			for di := range nodes[ni].GPUs {
				if nodes[ni].GPUs[di].DeviceID == p.DeviceID {
					nodes[ni].GPUs[di].Allocated = true
				}
			}
		}
	}
}
