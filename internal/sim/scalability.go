package sim

import (
	"fmt"
	"slices"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/heartbeat"
	"gpunion/internal/scheduler"
)

// ScalabilityConfig parameterises the §5.3 study: "the central
// coordinator handles up to 50 nodes with sub-second scheduling
// latency. However, beyond 200 nodes, heartbeat monitoring and database
// contention could become bottlenecks." The sweep times the scheduler
// and the failure detector in isolation; what the whole coordinator
// sustains — store, WAL and fsync included — is measured by bench/ on
// real processes (docs/BENCHMARKS.md "§5.3, measured").
type ScalabilityConfig struct {
	// NodeCounts is the sweep (default 10, 25, 50, 100, 200, 400, 800,
	// 2000, 5000: the paper's 50 and 200, then the fleet sizes bench/
	// drives end to end).
	NodeCounts []int
	// DecisionsPerPoint is how many scheduling decisions to time.
	DecisionsPerPoint int
	// Seed varies request shapes.
	Seed int64
}

// ScalabilityRow is one sweep point.
type ScalabilityRow struct {
	Nodes int
	// MeanSchedulingLatency / P95SchedulingLatency time one placement
	// decision against the full node view.
	MeanSchedulingLatency time.Duration
	P95SchedulingLatency  time.Duration
	// BatchMeanPerDecision is the per-decision cost when decisions are
	// drained through PlaceBatch (candidate set built once per batch).
	BatchMeanPerDecision time.Duration
	// BatchSpeedup is MeanSchedulingLatency / BatchMeanPerDecision.
	BatchSpeedup float64
	// SubSecond reports the paper's operating criterion.
	SubSecond bool
	// HeartbeatSweepLatency is one full failure-detection pass.
	HeartbeatSweepLatency time.Duration
}

// RunScalability measures coordinator-side costs across node counts:
// real wall-clock timings of the actual scheduler and heartbeat
// monitor, not simulated time and not a model.
func RunScalability(cfg ScalabilityConfig) ([]ScalabilityRow, error) {
	if len(cfg.NodeCounts) == 0 {
		cfg.NodeCounts = []int{10, 25, 50, 100, 200, 400, 800, 2000, 5000}
	}
	if cfg.DecisionsPerPoint <= 0 {
		cfg.DecisionsPerPoint = 200
	}
	now := Epoch
	var rows []ScalabilityRow
	for _, n := range cfg.NodeCounts {
		nodes := syntheticNodes(n)

		// --- Scheduling latency over the full node view. ---
		sched := scheduler.New(&scheduler.RoundRobin{})
		lat := make([]time.Duration, 0, cfg.DecisionsPerPoint)
		for i := 0; i < cfg.DecisionsPerPoint; i++ {
			req := scheduler.Request{
				JobID:      fmt.Sprintf("bench-%d", i),
				GPUMemMiB:  8192,
				Capability: gpu.ComputeCapability{Major: 7, Minor: 0},
			}
			start := time.Now()
			_, _ = sched.Schedule(req, nodes, now)
			lat = append(lat, time.Since(start))
		}
		mean, p95 := latencyStats(lat)

		// --- Batch scheduling: the same decisions drained through
		// PlaceBatch, candidate pool built once per batch. The batch is
		// capped at the free-device count so every member does the full
		// filter-and-order work the single-decision baseline does — an
		// exhausted batch tail would early-exit cheaply and flatter the
		// comparison.
		free := 0
		for _, rec := range nodes {
			if rec.Status != db.NodeActive {
				continue
			}
			for _, g := range rec.GPUs {
				if !g.Allocated {
					free++
				}
			}
		}
		batchSize := max(1, min(32, free))
		batchSched := scheduler.New(&scheduler.RoundRobin{})
		reqs := make([]scheduler.Request, 0, batchSize)
		batchStart := time.Now()
		for i := 0; i < cfg.DecisionsPerPoint; i++ {
			reqs = append(reqs, scheduler.Request{
				JobID:      fmt.Sprintf("batch-%d", i),
				GPUMemMiB:  8192,
				Capability: gpu.ComputeCapability{Major: 7, Minor: 0},
			})
			if len(reqs) == batchSize || i == cfg.DecisionsPerPoint-1 {
				_ = batchSched.PlaceBatch(reqs, nodes, now)
				reqs = reqs[:0]
			}
		}
		batchPerDecision := time.Since(batchStart) / time.Duration(cfg.DecisionsPerPoint)
		speedup := 0.0
		if batchPerDecision > 0 {
			speedup = float64(mean) / float64(batchPerDecision)
		}

		// --- Heartbeat sweep over n tracked nodes. ---
		hb := heartbeat.NewMonitor(10*time.Second, 3)
		for _, rec := range nodes {
			hb.Track(rec.ID, now)
		}
		for _, rec := range nodes {
			hb.Beat(rec.ID, now.Add(5*time.Second))
		}
		hbStart := time.Now()
		_ = hb.Lost(now.Add(time.Minute))
		hbLat := time.Since(hbStart)

		rows = append(rows, ScalabilityRow{
			Nodes:                 n,
			MeanSchedulingLatency: mean,
			P95SchedulingLatency:  p95,
			BatchMeanPerDecision:  batchPerDecision,
			BatchSpeedup:          speedup,
			SubSecond:             p95 < time.Second,
			HeartbeatSweepLatency: hbLat,
		})
	}
	return rows, nil
}

// syntheticNodes builds n single-3090 node records, a fraction of them
// busy, paused or flaky so the scheduler does real filtering work.
func syntheticNodes(n int) []db.NodeRecord {
	nodes := make([]db.NodeRecord, 0, n)
	for i := 0; i < n; i++ {
		rec := db.NodeRecord{
			ID:     fmt.Sprintf("node-%04d", i),
			Status: db.NodeActive,
			GPUs: []db.GPUInfo{{
				DeviceID: "gpu0", Model: "RTX 3090", Arch: "ampere",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6,
				Allocated: i%3 == 0,
			}},
			Kernel:       "5.15",
			RegisteredAt: Epoch.Add(-30 * 24 * time.Hour),
			LastJoin:     Epoch.Add(-24 * time.Hour),
			Departures:   i % 5,
		}
		if i%11 == 0 {
			rec.Status = db.NodePaused
		}
		nodes = append(nodes, rec)
	}
	return nodes
}

func latencyStats(lat []time.Duration) (mean, p95 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := slices.Sorted(slices.Values(lat))
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean = sum / time.Duration(len(sorted))
	p95 = sorted[int(0.95*float64(len(sorted)-1))]
	return mean, p95
}
