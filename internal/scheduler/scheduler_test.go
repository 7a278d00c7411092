package scheduler

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

var now = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func nodeWith(id string, status db.NodeStatus, gpus ...db.GPUInfo) db.NodeRecord {
	return db.NodeRecord{
		ID: id, Status: status, GPUs: gpus,
		RegisteredAt: now.Add(-24 * time.Hour),
		LastJoin:     now.Add(-24 * time.Hour),
		TotalUptime:  0,
	}
}

func dev(id string, memMiB int64, major, minor int, allocated bool) db.GPUInfo {
	return db.GPUInfo{DeviceID: id, Model: "test", MemoryMiB: memMiB,
		CapabilityMajor: major, CapabilityMinor: minor, Allocated: allocated}
}

func req(job string, mem int64) Request {
	return Request{JobID: job, GPUMemMiB: mem, Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
}

func TestScheduleBasicPlacement(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
	}
	p, err := s.Schedule(req("j1", 8000), nodes, now)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeID != "n1" || p.DeviceID != "gpu0" || p.JobID != "j1" {
		t.Fatalf("placement = %+v", p)
	}
	if p.Reliability <= 0 || p.Reliability > 1 {
		t.Fatalf("reliability = %v", p.Reliability)
	}
}

func TestScheduleSkipsInactiveNodes(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodePaused, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeDeparted, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n3", db.NodeUnreachable, dev("gpu0", 24576, 8, 6, false)),
	}
	if _, err := s.Schedule(req("j1", 8000), nodes, now); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("err = %v, want ErrNoPlacement", err)
	}
}

func TestScheduleSkipsAllocatedDevices(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive,
			dev("gpu0", 24576, 8, 6, true),
			dev("gpu1", 24576, 8, 6, false)),
	}
	p, err := s.Schedule(req("j1", 8000), nodes, now)
	if err != nil || p.DeviceID != "gpu1" {
		t.Fatalf("placement = %+v, %v", p, err)
	}
}

func TestScheduleMemoryConstraint(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeActive, dev("gpu0", 81920, 8, 0, false)),
	}
	p, err := s.Schedule(req("j1", 40000), nodes, now)
	if err != nil || p.NodeID != "n2" {
		t.Fatalf("placement = %+v, %v (40 GB must land on the A100 node)", p, err)
	}
}

func TestScheduleCapabilityConstraint(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 81920, 8, 0, false)),
	}
	r := req("j1", 8000)
	r.Capability = gpu.ComputeCapability{Major: 8, Minor: 6}
	if _, err := s.Schedule(r, nodes, now); !errors.Is(err, ErrNoPlacement) {
		t.Fatalf("err = %v, want ErrNoPlacement (A100 is cc 8.0)", err)
	}
}

func TestScheduleAvoidNodes(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
	}
	r := req("j1", 8000)
	r.AvoidNodes = []string{"n1"}
	p, err := s.Schedule(r, nodes, now)
	if err != nil || p.NodeID != "n2" {
		t.Fatalf("placement = %+v, %v", p, err)
	}
}

func TestSchedulePreferNodeWins(t *testing.T) {
	s := New(nil)
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n3", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
	}
	r := req("j1", 8000)
	r.PreferNode = "n3"
	p, err := s.Schedule(r, nodes, now)
	if err != nil || p.NodeID != "n3" {
		t.Fatalf("placement = %+v, %v (migrate-back preference ignored)", p, err)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	s := New(&RoundRobin{})
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n3", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
	}
	var got []string
	for i := 0; i < 6; i++ {
		p, err := s.Schedule(req("j", 8000), nodes, now)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p.NodeID)
	}
	want := []string{"n1", "n2", "n3", "n1", "n2", "n3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation = %v, want %v", got, want)
		}
	}
}

func TestBestFitPicksSmallestDevice(t *testing.T) {
	s := New(BestFit{})
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive, dev("gpu0", 81920, 8, 0, false)),
		nodeWith("n2", db.NodeActive, dev("gpu0", 24576, 8, 6, false)),
		nodeWith("n3", db.NodeActive, dev("gpu0", 49152, 8, 6, false)),
	}
	p, err := s.Schedule(req("j1", 8000), nodes, now)
	if err != nil || p.NodeID != "n2" {
		t.Fatalf("best-fit chose %+v, want the 24 GiB device", p)
	}
}

func TestLeastLoadedSpreads(t *testing.T) {
	s := New(LeastLoaded{})
	nodes := []db.NodeRecord{
		nodeWith("n1", db.NodeActive,
			dev("gpu0", 24576, 8, 6, true), dev("gpu1", 24576, 8, 6, false)),
		nodeWith("n2", db.NodeActive,
			dev("gpu0", 24576, 8, 6, false), dev("gpu1", 24576, 8, 6, false)),
	}
	p, err := s.Schedule(req("j1", 8000), nodes, now)
	if err != nil || p.NodeID != "n2" {
		t.Fatalf("least-loaded chose %+v, want n2 (2 free)", p)
	}
}

func TestReliabilityPredictDecaysWithDepartures(t *testing.T) {
	fresh := nodeWith("n1", db.NodeActive)
	flaky := fresh
	flaky.Departures = 5
	if Predict(fresh, now) <= Predict(flaky, now) {
		t.Fatal("departures did not depress reliability")
	}
	if got := Predict(fresh, now); got <= 0 || got > 1 {
		t.Fatalf("fresh score = %v", got)
	}
}

func TestReliabilityNeverZero(t *testing.T) {
	n := nodeWith("n1", db.NodeActive)
	n.Departures = 1000
	if got := Predict(n, now); got <= 0 {
		t.Fatalf("score = %v, must stay positive", got)
	}
}

func TestDegradationPushesUnreliableBack(t *testing.T) {
	s := New(BestFit{})
	reliable := nodeWith("n-reliable", db.NodeActive, dev("gpu0", 24576, 8, 6, false))
	flaky := nodeWith("n-flaky", db.NodeActive, dev("gpu0", 24576, 8, 6, false))
	flaky.Departures = 10 // score ≈ 0.85^10 ≈ 0.20 < 0.5
	nodes := []db.NodeRecord{flaky, reliable}

	r := req("j1", 8000)
	r.LongRunning = true
	p, err := s.Schedule(r, nodes, now)
	if err != nil || p.NodeID != "n-reliable" {
		t.Fatalf("long-running job landed on %+v, want the reliable node", p)
	}

	// Short job: strategy order alone applies (alphabetical tie-break →
	// the flaky node is eligible and chosen by name).
	p2, err := s.Schedule(req("j2", 8000), nodes, now)
	if err != nil || p2.NodeID != "n-flaky" {
		t.Fatalf("short job placement = %+v", p2)
	}
}

func TestFlakyNodeStillUsedWhenAlone(t *testing.T) {
	s := New(nil)
	flaky := nodeWith("n1", db.NodeActive, dev("gpu0", 24576, 8, 6, false))
	flaky.Departures = 20
	r := req("j1", 8000)
	r.LongRunning = true
	p, err := s.Schedule(r, []db.NodeRecord{flaky}, now)
	if err != nil || p.NodeID != "n1" {
		t.Fatalf("degraded-only placement = %+v, %v (degrade must not exclude)", p, err)
	}
}

func TestStrategyNames(t *testing.T) {
	if (&RoundRobin{}).Name() != "round-robin" ||
		(BestFit{}).Name() != "best-fit" ||
		(LeastLoaded{}).Name() != "least-loaded" {
		t.Fatal("strategy names wrong")
	}
	if New(nil).strategy.Name() != "round-robin" {
		t.Fatal("default strategy should be round-robin")
	}
}

// Property: any returned placement satisfies the request's constraints.
func TestPlacementSatisfiesConstraintsProperty(t *testing.T) {
	f := func(memRaw uint16, major, minor uint8, alloc0, alloc1 bool) bool {
		mem := int64(memRaw) * 4
		cap := gpu.ComputeCapability{Major: int(major % 10), Minor: int(minor % 10)}
		nodes := []db.NodeRecord{
			nodeWith("n1", db.NodeActive,
				dev("gpu0", 24576, 8, 6, alloc0),
				dev("gpu1", 81920, 8, 0, alloc1)),
		}
		r := Request{JobID: "p", GPUMemMiB: mem, Capability: cap}
		p, err := New(nil).Schedule(r, nodes, now)
		if err != nil {
			return true // no placement is always acceptable
		}
		for _, n := range nodes {
			if n.ID != p.NodeID {
				continue
			}
			for _, d := range n.GPUs {
				if d.DeviceID != p.DeviceID {
					continue
				}
				devCap := gpu.ComputeCapability{Major: d.CapabilityMajor, Minor: d.CapabilityMinor}
				return !d.Allocated && d.MemoryMiB >= mem && devCap.AtLeast(cap)
			}
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: reliability is monotone non-increasing in departures.
func TestReliabilityMonotoneProperty(t *testing.T) {
	f := func(d1, d2 uint8) bool {
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		a := nodeWith("n", db.NodeActive)
		a.Departures = int(d1)
		b := a
		b.Departures = int(d2)
		return Predict(a, now) >= Predict(b, now)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
