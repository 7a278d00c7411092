// Package gpunion_test holds the benchmark harness that regenerates
// every table and figure in the paper's evaluation (docs/BENCHMARKS.md
// says what each benchmark measures and holds the measured numbers).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each experiment bench prints the paper-style rows once and reports
// its headline quantities as benchmark metrics.
package gpunion_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/heartbeat"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/sim"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

var benchEpoch = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

// once-guards so each experiment's table prints a single time even
// though the benchmark harness re-runs bodies with growing b.N.
var (
	onceTable1      sync.Once
	onceFig2        sync.Once
	onceFig3        sync.Once
	onceImpact      sync.Once
	onceTraffic     sync.Once
	onceScalability sync.Once
	onceALCvsCRIU   sync.Once
)

// --- Table 1: platform comparison ---

func BenchmarkTable1PlatformComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := sim.Table1()
		if len(rows) != 12 {
			b.Fatalf("table rows = %d", len(rows))
		}
	}
	onceTable1.Do(func() {
		fmt.Println("\n--- Table 1: platform comparison ---")
		_ = sim.WriteTable1(os.Stdout)
	})
}

// --- Fig. 2: campus utilization (34% → 67%, +40% sessions) ---

func BenchmarkFig2Utilization(b *testing.B) {
	var last sim.Fig2Result
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFig2(sim.Fig2Config{Weeks: 1, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.BaselineUtilization, "manual_util_%")
	b.ReportMetric(100*last.GPUnionUtilization, "gpunion_util_%")
	b.ReportMetric(100*last.SessionGain(), "session_gain_%")
	onceFig2.Do(func() {
		fmt.Printf("\n--- Fig. 2 (1 week): utilization %.0f%% -> %.0f%%, sessions %d -> %d (paper: 34%%->67%%, +40%%) ---\n",
			100*last.BaselineUtilization, 100*last.GPUnionUtilization,
			last.BaselineSessions, last.GPUnionSessions)
	})
}

// --- Fig. 3: migration under interruptions ---

func BenchmarkFig3Migration(b *testing.B) {
	var last sim.Fig3Result
	for i := 0; i < b.N; i++ {
		res, err := sim.RunFig3(sim.Fig3Config{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(100*last.Scheduled.MigrationSuccessRate, "scheduled_success_%")
	b.ReportMetric(last.Emergency.MeanWorkLost.Seconds(), "emergency_loss_s")
	b.ReportMetric(100*last.MigratedBackFraction, "migrate_back_%")
	onceFig3.Do(func() {
		fmt.Printf("\n--- Fig. 3: scheduled %.0f%%, emergency %.0f%% (loss %v of %v interval), temporary %.0f%%, migrate-back %.0f%% (paper: 94%%, loss ≈ interval, 67%%) ---\n",
			100*last.Scheduled.MigrationSuccessRate,
			100*last.Emergency.MigrationSuccessRate,
			last.Emergency.MeanWorkLost.Round(time.Second), last.CheckpointInterval,
			100*last.Temporary.MigrationSuccessRate,
			100*last.MigratedBackFraction)
	})
}

// --- §4 Training impact: 2–4 interruptions ⇒ 3–7% ---

func BenchmarkTrainingImpact(b *testing.B) {
	var rows []sim.ImpactRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.RunTrainingImpact(sim.ImpactConfig{MaxInterruptions: 4, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum, n float64
	for _, r := range rows {
		if r.Interruptions >= 2 && r.Interruptions <= 4 {
			sum += r.IncreasePct()
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/n, "mean_increase_2to4_%")
	}
	onceImpact.Do(func() {
		fmt.Println("\n--- Training impact (paper: 2–4 interruptions => 3–7%) ---")
		for _, r := range rows {
			if r.Interruptions >= 2 && r.Interruptions <= 4 {
				mem := ""
				if r.MemoryIntensive {
					mem = " (memory-intensive)"
				}
				fmt.Printf("  %s%s k=%d: +%.1f%%\n", r.Class, mem, r.Interruptions, r.IncreasePct())
			}
		}
	})
}

// --- §4 Network traffic: incremental backup < 2% of bandwidth ---

func BenchmarkNetworkTraffic(b *testing.B) {
	var inc, full sim.TrafficResult
	for i := 0; i < b.N; i++ {
		var err error
		inc, err = sim.RunTraffic(sim.TrafficConfig{Hours: 12, Jobs: 20, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		full, err = sim.RunTraffic(sim.TrafficConfig{Hours: 12, Jobs: 20, Seed: 5, ForceFull: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*inc.PeakUtilization, "incremental_peak_%")
	b.ReportMetric(100*full.PeakUtilization, "full_peak_%")
	onceTraffic.Do(func() {
		fmt.Printf("\n--- Network traffic: incremental peak %.2f%% / full peak %.2f%% of backbone (paper: < 2%% with incrementality) ---\n",
			100*inc.PeakUtilization, 100*full.PeakUtilization)
	})
}

// --- §5.3 Scalability: sub-second to 50 nodes, bottlenecks beyond 200 ---

func BenchmarkScalability(b *testing.B) {
	var rows []sim.ScalabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.RunScalability(sim.ScalabilityConfig{DecisionsPerPoint: 100})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Nodes == 50 {
			b.ReportMetric(float64(r.P95SchedulingLatency.Microseconds()), "p95_sched_us_at_50")
		}
		if r.Nodes == 400 {
			b.ReportMetric(r.BatchSpeedup, "batch_speedup_at_400")
		}
	}
	onceScalability.Do(func() {
		fmt.Println("\n--- Scalability (paper: sub-second to 50 nodes; bottlenecks beyond 200) ---")
		for _, r := range rows {
			fmt.Printf("  n=%-4d sched p95=%-12v batch/decision=%-10v hb sweep=%-10v sub-second=%v\n",
				r.Nodes, r.P95SchedulingLatency, r.BatchMeanPerDecision, r.HeartbeatSweepLatency, r.SubSecond)
		}
	})
}

// --- §3.5 ablation: ALC vs CRIU across heterogeneous hardware ---

func BenchmarkALCvsCRIU(b *testing.B) {
	type cell struct {
		mech      string
		cuda      bool
		srcArch   gpu.Architecture
		dstArch   gpu.Architecture
		srcKernel string
		dstKernel string
	}
	// The campus migration matrix: GPU workloads moving across the
	// paper's heterogeneous park.
	cells := []cell{
		{"alc", true, gpu.Ampere, gpu.Ampere, "5.15", "5.15"},
		{"alc", true, gpu.Ampere, gpu.Ada, "5.15", "6.1"},
		{"criu", true, gpu.Ampere, gpu.Ampere, "5.15", "5.15"},
		{"criu", false, gpu.Ampere, gpu.Ampere, "5.15", "5.15"},
		{"criu", false, gpu.Ampere, gpu.Ada, "5.15", "5.15"},
		{"criu", false, gpu.Ampere, gpu.Ampere, "5.15", "6.1"},
	}
	success := make([]bool, len(cells))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ci, c := range cells {
			img := checkpoint.NewMemoryImage(64, 1<<20)
			src := checkpoint.Source{
				JobID: "ablate", Image: img,
				Progress: checkpoint.Progress{Step: 100},
				Env: checkpoint.Env{
					KernelVersion: c.srcKernel, GPUArch: c.srcArch,
					HasCUDAContext: c.cuda, GPUMemMiB: 8192,
				},
			}
			var mech checkpoint.Checkpointer = checkpoint.ALC{}
			if c.mech == "criu" {
				mech = checkpoint.CRIU{}
			}
			ck, err := mech.Capture(src, 1, false, benchEpoch)
			ok := err == nil
			if ok {
				_, rerr := mech.Restore(ck, checkpoint.Target{
					KernelVersion: c.dstKernel, GPUArch: c.dstArch,
				})
				ok = rerr == nil
			}
			success[ci] = ok
		}
	}
	onceALCvsCRIU.Do(func() {
		fmt.Println("\n--- ALC vs CRIU ablation (paper §3.5: CRIU fails on CUDA contexts, kernel pinning, cross-arch) ---")
		for ci, c := range cells {
			fmt.Printf("  %-4s cuda=%-5v %s/%s -> %s/%s : success=%v\n",
				c.mech, c.cuda, c.srcArch, c.srcKernel, c.dstArch, c.dstKernel, success[ci])
		}
	})
	// ALC must survive every scenario; CRIU only the homogeneous
	// CPU-only one.
	if !success[0] || !success[1] {
		b.Fatal("ALC failed a migration it must survive")
	}
	if success[2] || success[4] || success[5] {
		b.Fatal("CRIU survived a scenario the paper says it cannot")
	}
	if !success[3] {
		b.Fatal("CRIU failed the homogeneous CPU-only case")
	}
}

// --- Design-choice ablations (docs/BENCHMARKS.md) ---

var (
	onceInterval sync.Once
	onceStrategy sync.Once
)

// BenchmarkCheckpointIntervalAblation quantifies §3.5's "checkpoint
// frequency optimization": tighter intervals bound emergency work loss
// but ship more backup traffic.
func BenchmarkCheckpointIntervalAblation(b *testing.B) {
	var pts []sim.IntervalPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = sim.RunCheckpointIntervalSweep(nil, 42)
		if err != nil {
			b.Fatal(err)
		}
	}
	onceInterval.Do(func() {
		fmt.Println("\n--- Checkpoint-interval ablation: loss vs backup traffic ---")
		for _, p := range pts {
			fmt.Printf("  interval=%-6v emergency loss=%-8v backup=%6.1f GB  peak=%.2f%%\n",
				p.Interval, p.MeanEmergencyLoss.Round(time.Second),
				float64(p.CheckpointBytes)/1e9, 100*p.PeakUtilization)
		}
	})
}

// BenchmarkSchedulerStrategyAblation compares §3.2's allocation
// strategies on a heterogeneous campus: best-fit protects the big GPUs
// for the jobs that need them.
func BenchmarkSchedulerStrategyAblation(b *testing.B) {
	var rows []sim.StrategyResult
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = sim.RunStrategyAblation(42)
		if err != nil {
			b.Fatal(err)
		}
	}
	onceStrategy.Do(func() {
		fmt.Println("\n--- Scheduler-strategy ablation: large-job queueing delay ---")
		for _, r := range rows {
			fmt.Printf("  %-12s utilization=%.0f%%  large jobs placed=%d  mean wait=%v\n",
				r.Strategy, 100*r.Utilization, r.LargeJobsPlaced,
				r.MeanLargeJobWait.Round(time.Second))
		}
	})
}

// --- Micro-benchmarks: the platform's hot paths ---

func benchNodes(n int) []db.NodeRecord {
	nodes := make([]db.NodeRecord, 0, n)
	for i := 0; i < n; i++ {
		nodes = append(nodes, db.NodeRecord{
			ID:     fmt.Sprintf("node-%03d", i),
			Status: db.NodeActive,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: benchEpoch,
		})
	}
	return nodes
}

func BenchmarkSchedulerDecision50Nodes(b *testing.B) {
	s := scheduler.New(&scheduler.RoundRobin{})
	nodes := benchNodes(50)
	req := scheduler.Request{JobID: "j", GPUMemMiB: 8192,
		Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(req, nodes, benchEpoch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointCaptureIncremental(b *testing.B) {
	img := checkpoint.NewMemoryImage(1500, 1<<20) // 1.5 GB state
	src := checkpoint.Source{JobID: "bench", Image: img}
	if _, err := (checkpoint.ALC{}).Capture(src, 1, false, benchEpoch); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img.TouchFraction(0.05)
		if _, err := (checkpoint.ALC{}).Capture(src, i+2, true, benchEpoch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeartbeatSweep200Nodes(b *testing.B) {
	m := heartbeat.NewMonitor(10*time.Second, 3)
	for i := 0; i < 200; i++ {
		m.Track(fmt.Sprintf("n%03d", i), benchEpoch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := benchEpoch.Add(time.Duration(i) * time.Second)
		for j := 0; j < 200; j++ {
			m.Beat(fmt.Sprintf("n%03d", j), now)
		}
		_ = m.Lost(now)
	}
}

// BenchmarkObsOverhead quantifies the flight recorder's cost on the
// control plane's hot paths. record-direct is one lifecycle event into
// the ring, as the coordinator and the agents record every one.
// placement-traced anchors the denominator: a full 32-request placement
// cycle over the cached candidate set, recording one job.scheduled event
// per decision. docs/BENCHMARKS.md carries the arithmetic (the
// observability acceptance bar is < 5% overhead on the placement path;
// measured well under 1%).
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("record-direct", func(b *testing.B) {
		rec := obs.NewRecorder(simclock.Real(), 1<<14)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Record("bench.event", "j", "n", nil)
		}
	})
	b.Run("placement-traced", func(b *testing.B) {
		store := db.New(0)
		heartbeatStore(store, 50)
		s := scheduler.New(&scheduler.RoundRobin{})
		rec := obs.NewRecorder(simclock.Real(), 1<<14)
		reqs := make([]scheduler.Request, 32)
		for i := range reqs {
			reqs[i] = scheduler.Request{JobID: fmt.Sprintf("j%02d", i), GPUMemMiB: 8192,
				Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results := s.Place(reqs, store, benchEpoch)
			if results[0].Err != nil {
				b.Fatal(results[0].Err)
			}
			for k := range results {
				rec.RecordAt(benchEpoch, obs.KindJobScheduled, reqs[k].JobID, results[k].Placement.NodeID, nil)
			}
		}
	})
}

func BenchmarkDBJobQueueQuery(b *testing.B) {
	store := db.New(0)
	for i := 0; i < 500; i++ {
		state := db.JobPending
		if i%3 == 0 {
			state = db.JobRunning
		}
		_ = store.InsertJob(db.JobRecord{
			ID: fmt.Sprintf("job-%04d", i), State: state,
			Priority: i % 7, SubmittedAt: benchEpoch.Add(time.Duration(i) * time.Second),
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = store.JobsInState(db.JobPending)
	}
}

// BenchmarkHotPathCalibration is a fixed, allocation-free, pure-CPU
// workload (xorshift over 4096 rounds). scripts/benchcheck measures it
// alongside the gated hot-path benchmarks and rescales the recorded
// baseline by the calibration ratio, so the regression threshold
// compares code, not the speed of the machine the baseline happened to
// be recorded on.
func BenchmarkHotPathCalibration(b *testing.B) {
	var acc uint64 = 88172645463325252
	for i := 0; i < b.N; i++ {
		x := acc
		for k := 0; k < 4096; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		acc = x
	}
	if acc == 0 {
		b.Fatal("calibration loop collapsed")
	}
}

// BenchmarkDBJobsOnNode measures the heartbeat anti-entropy lookup: the
// jobs currently placed on one node, out of a store holding many more.
func BenchmarkDBJobsOnNode(b *testing.B) {
	store := db.New(0)
	for i := 0; i < 200; i++ {
		store.UpsertNode(db.NodeRecord{
			ID: fmt.Sprintf("node-%03d", i), Status: db.NodeActive,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6, Allocated: true}},
			RegisteredAt: benchEpoch,
		})
	}
	for i := 0; i < 1000; i++ {
		rec := db.JobRecord{
			ID: fmt.Sprintf("job-%04d", i), Priority: i % 7,
			SubmittedAt: benchEpoch.Add(time.Duration(i) * time.Second),
		}
		switch i % 4 {
		case 0, 1:
			rec.State = db.JobRunning
			rec.NodeID = fmt.Sprintf("node-%03d", i%200)
			rec.DeviceID = "gpu0"
		case 2:
			rec.State = db.JobCompleted
		default:
			rec.State = db.JobPending
		}
		_ = store.InsertJob(rec)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs := store.JobsOnNode("node-048"); len(jobs) == 0 {
			b.Fatal("no jobs on node")
		}
	}
}

// BenchmarkDBActiveNodesAllocs tracks the allocation cost of the
// scan a candidate-set rebuild makes.
func BenchmarkDBActiveNodesAllocs(b *testing.B) {
	store := db.New(0)
	for i := 0; i < 200; i++ {
		status := db.NodeActive
		if i%4 == 0 {
			status = db.NodePaused
		}
		store.UpsertNode(db.NodeRecord{
			ID: fmt.Sprintf("node-%03d", i), Status: status,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: benchEpoch,
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nodes := store.ActiveNodes(); len(nodes) != 150 {
			b.Fatalf("active nodes = %d", len(nodes))
		}
	}
}

// heartbeatStore seeds a store with n nodes for the heartbeat benches.
func heartbeatStore(store db.Store, n int) []string {
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("node-%03d", i)
		ids[i] = id
		store.UpsertNode(db.NodeRecord{
			ID: id, Status: db.NodeActive,
			GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: benchEpoch,
		})
	}
	return ids
}

// BenchmarkConcurrentHeartbeats runs the coordinator's per-heartbeat
// write mix (node update + one batch of two telemetry samples) from
// parallel goroutines — the hot path the sharded store parallelizes.
func BenchmarkConcurrentHeartbeats(b *testing.B) {
	store := db.New(0)
	ids := heartbeatStore(store, 200)
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			id := ids[i%len(ids)]
			_ = store.UpdateNode(id, func(n *db.NodeRecord) {
				n.LastHeartbeat = n.LastHeartbeat.Add(time.Second)
			})
			store.AppendSamples([]db.Sample{
				{Time: benchEpoch, NodeID: id, Metric: "gpu_utilization", Value: 0.5},
				{Time: benchEpoch, NodeID: id, Metric: "gpu_memory_used_mib", Value: 1024},
			})
		}
	})
}

// BenchmarkHeartbeatCoalesced measures the commit path the coalescing
// ingress buffer takes at each flush tick: one TouchNodes batch of 64
// no-op advances over a 200-node fleet — one critical section and one
// MutBeat record per shard instead of 64 full after-images.
// Single-goroutine and allocation-light, so it is stable enough for
// the bench-check gate.
func BenchmarkHeartbeatCoalesced(b *testing.B) {
	store := db.New(0)
	ids := heartbeatStore(store, 200)
	at := benchEpoch
	batch := make([]db.BeatDelta, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Second)
		for j := range batch {
			batch[j] = db.BeatDelta{NodeID: ids[(i*len(batch)+j)%len(ids)], At: at}
		}
		if store.TouchNodes(batch) == 0 {
			b.Fatal("no deltas applied")
		}
	}
}

// BenchmarkHeartbeatPerBeatCommit is the pre-coalescing shape of the
// same traffic — 64 individual UpdateNode commits per iteration, each
// paying its own critical section and full after-image — kept as the
// measured baseline BenchmarkHeartbeatCoalesced is read against.
func BenchmarkHeartbeatPerBeatCommit(b *testing.B) {
	store := db.New(0)
	ids := heartbeatStore(store, 200)
	at := benchEpoch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(time.Second)
		for j := 0; j < 64; j++ {
			if err := store.UpdateNode(ids[(i*64+j)%len(ids)], func(n *db.NodeRecord) {
				n.LastHeartbeat = at
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkConcurrentReads measures parallel read-path throughput:
// point lookups plus the scheduler's ActiveNodes scan.
func BenchmarkConcurrentReads(b *testing.B) {
	store := db.New(0)
	ids := heartbeatStore(store, 200)
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			if _, err := store.GetNode(ids[i%len(ids)]); err != nil {
				b.Error(err) // Fatal must not run off the test goroutine
				return
			}
			if i%8 == 0 {
				_ = store.ActiveNodes()
			}
		}
	})
}

// BenchmarkBatchPlacement32 places 32 requests per cycle through
// PlaceBatch: one candidate-pool build serves the whole batch.
func BenchmarkBatchPlacement32(b *testing.B) {
	s := scheduler.New(&scheduler.RoundRobin{})
	nodes := benchNodes(50)
	reqs := make([]scheduler.Request, 32)
	for i := range reqs {
		reqs[i] = scheduler.Request{JobID: fmt.Sprintf("j%02d", i), GPUMemMiB: 8192,
			Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.PlaceBatch(reqs, nodes, benchEpoch)
		if results[0].Err != nil {
			b.Fatal(results[0].Err)
		}
	}
}

// BenchmarkPlaceCached32 is the coordinator's actual cycle shape: 32
// requests through Place against a store. In the nodes= arms one device
// flip per cycle (what a committed placement does) moves the node
// generation, so every cycle is a miss and pays the full rebuild — the
// arm bench-check gates at 2000 nodes, because no gated end-to-end
// workload schedules jobs. The hit arm mutates nothing and measures the
// 32 decisions over the cached set alone.
func BenchmarkPlaceCached32(b *testing.B) {
	reqs := make([]scheduler.Request, 32)
	for i := range reqs {
		reqs[i] = scheduler.Request{JobID: fmt.Sprintf("j%02d", i), GPUMemMiB: 8192,
			Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
	}
	run := func(nodes int, flip bool) func(b *testing.B) {
		return func(b *testing.B) {
			store := db.New(0)
			for _, n := range benchNodes(nodes) {
				store.UpsertNode(n)
			}
			s := scheduler.New(&scheduler.RoundRobin{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := s.Place(reqs, store, benchEpoch)
				if results[0].Err != nil {
					b.Fatal(results[0].Err)
				}
				if flip {
					_ = store.UpdateNode("node-000", func(n *db.NodeRecord) {
						n.GPUs[0].Allocated = !n.GPUs[0].Allocated
					})
				}
			}
		}
	}
	b.Run("nodes=50", run(50, true))
	b.Run("nodes=2000", run(2000, true))
	b.Run("hit", run(2000, false))
}

// BenchmarkSinglePlacement32 is the same 32 decisions made one at a
// time — the pre-batching coordinator behaviour, for comparison.
func BenchmarkSinglePlacement32(b *testing.B) {
	s := scheduler.New(&scheduler.RoundRobin{})
	nodes := benchNodes(50)
	req := scheduler.Request{JobID: "j", GPUMemMiB: 8192,
		Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 32; k++ {
			if _, err := s.Schedule(req, nodes, benchEpoch); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTokenIssueVerify(b *testing.B) {
	a, err := auth.NewAuthority([]byte("bench-secret"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok, err := a.Issue("node-bench", auth.RoleProvider, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Verify(tok, benchEpoch.Add(time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTokenVerify is what a beat pays to have its token checked:
// cold, a token this Authority has not seen (HMAC, two base64 passes,
// claims decode — once per session since PR 24); warm, one it has.
func BenchmarkTokenVerify(b *testing.B) {
	secret := []byte("bench-secret")
	issuer, err := auth.NewAuthority(secret, time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	toks := make([]string, 1024)
	for i := range toks {
		if toks[i], err = issuer.Issue(fmt.Sprintf("node-%04d", i), auth.RoleProvider, benchEpoch); err != nil {
			b.Fatal(err)
		}
	}
	now := benchEpoch.Add(time.Second)
	for _, arm := range []string{"cold", "warm"} {
		b.Run(arm, func(b *testing.B) {
			a := issuer
			for i := 0; i < b.N; i++ {
				if arm == "cold" && i%len(toks) == 0 {
					// A verifier that has seen none of the ring.
					if a, err = auth.NewAuthority(secret, time.Hour); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := a.Verify(toks[i%len(toks)], now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nopHandle is an agent transport for fleets that never get a job.
type nopHandle struct{}

func (nopHandle) Launch(api.LaunchRequest) (api.LaunchResponse, error) {
	return api.LaunchResponse{}, fmt.Errorf("bench: no agent behind this handle")
}
func (nopHandle) Kill(api.KillRequest) error { return nil }
func (nopHandle) Checkpoint(api.CheckpointRequest) (api.CheckpointResponse, error) {
	return api.CheckpointResponse{}, fmt.Errorf("bench: no agent behind this handle")
}

// BenchmarkHeartbeatRoute is one beat through the coordinator's real
// Handler — mux, body decode, the heartbeat stages, reply encode — with
// no socket and no WAL: the coordinator CPU and allocations of the
// end-to-end beats_idle and beats_telemetry workloads (bench/), whose
// fleet it copies: 2 000 registered two-device nodes beating round
// robin, the body each one's marshalled request with a fresh sequence.
// Single-goroutine on a simulated clock, so allocs/op repeats exactly;
// bench-check gates both ns/op and allocs/op.
func BenchmarkHeartbeatRoute(b *testing.B) {
	for _, arm := range []string{"idle", "telemetry"} {
		b.Run(arm, func(b *testing.B) { benchHeartbeatRoute(b, arm == "telemetry") })
	}
}

func benchHeartbeatRoute(b *testing.B, telemetry bool) {
	const nodes = 2000
	clock := simclock.NewSim(benchEpoch)
	coord, err := core.New(core.Config{}, clock, db.New(0),
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Stop()
	handler := coord.Handler(func(string) core.AgentHandle { return nopHandle{} })

	// Each node's request marshalled once, cut where the sequence goes
	// (beat_seq is the last field on the wire).
	const seqMark = 987654321987
	bodies := make([][]byte, nodes)
	for i := range bodies {
		id := fmt.Sprintf("node-%04d", i)
		gpus := make([]db.GPUInfo, 2)
		req := api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
			MachineID: id, BeatSeq: seqMark,
		}
		for d := range gpus {
			gpus[d] = db.GPUInfo{DeviceID: fmt.Sprintf("gpu%d", d), Model: "RTX 3090",
				MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}
			if telemetry {
				req.Telemetry = append(req.Telemetry, gpu.Telemetry{DeviceID: gpus[d].DeviceID, Model: gpus[d].Model,
					TotalMemMiB: 24576, TemperatureC: 55.5, PowerW: 210.25})
			}
		}
		reg, err := coord.Register(api.RegisterRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
			MachineID: id, Addr: "bench://" + id, GPUs: gpus, Kernel: "5.15",
		}, nopHandle{})
		if err != nil {
			b.Fatal(err)
		}
		req.Token = reg.Token
		raw, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		prefix, rest, ok := bytes.Cut(raw, []byte(strconv.Itoa(seqMark)))
		if !ok || string(rest) != "}" {
			b.Fatalf("beat_seq is not the last field of %s", raw)
		}
		bodies[i] = prefix[:len(prefix):len(prefix)]
	}

	var body []byte
	rd := bytes.NewReader(nil)
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/heartbeat", nil)
	beat := func(i int) {
		clock.Advance(time.Microsecond) // a beat parks only at a later instant than the node's last
		body = strconv.AppendInt(append(body[:0], bodies[i%nodes]...), int64(i/nodes+1), 10)
		rd.Reset(append(body, '}'))
		httpReq.Body = io.NopCloser(rd)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httpReq)
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"acknowledged":true`)) {
			b.Fatalf("beat %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	// Two rounds untimed: what a node's first beats grow (token cache,
	// sequence and coalescer maps, sample rings) is paid once per
	// session, and left in it would make allocs/op depend on b.N.
	const warm = 2 * nodes
	for i := 0; i < warm; i++ {
		beat(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		beat(warm + i)
	}
}

// BenchmarkDecodeHeartbeat is the body decode of one beat alone:
// api.DecodeJSON of a heartbeat request, bodies marshalled as
// bench/fleet.go marshals them (2 000 nodes, real tokens, fresh sequence
// numbers; the telemetry arm adds one reading per device of two), read
// from one reused httptest request. It is the part of
// BenchmarkHeartbeatRoute the canonical heartbeat parse changes;
// bench-check gates its allocs/op exactly.
func BenchmarkDecodeHeartbeat(b *testing.B) {
	for _, arm := range []string{"idle", "telemetry"} {
		b.Run(arm, func(b *testing.B) { benchDecodeHeartbeat(b, arm == "telemetry") })
	}
}

// rewindBody is a request body the benchmark can refill without
// allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

func benchDecodeHeartbeat(b *testing.B, telemetry bool) {
	const nodes = 2000
	issuer, err := auth.NewAuthority([]byte("bench-secret"), time.Hour)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, nodes)
	for i := range bodies {
		id := fmt.Sprintf("node-%04d", i)
		tok, err := issuer.Issue(id, auth.RoleProvider, benchEpoch)
		if err != nil {
			b.Fatal(err)
		}
		req := api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
			MachineID: id, Token: tok, BeatSeq: uint64(1000 + i),
		}
		if telemetry {
			for d := 0; d < 2; d++ {
				u := rng.Float64()
				req.Telemetry = append(req.Telemetry, gpu.Telemetry{DeviceID: fmt.Sprintf("gpu%d", d),
					Model: "RTX 3090", TotalMemMiB: 24576, TemperatureC: 40 + 30*u, PowerW: 100 + 200*u})
			}
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			b.Fatal(err)
		}
	}
	body := new(rewindBody)
	httpReq := httptest.NewRequest(http.MethodPost, "/v1/heartbeat", nil)
	httpReq.Body = body
	rec := httptest.NewRecorder()
	var out api.HeartbeatRequest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(bodies[i%nodes])
		out = api.HeartbeatRequest{}
		if !api.DecodeJSON(rec, httpReq, &out) || out.Token == "" {
			b.Fatalf("decode %d: %d %s", i, rec.Code, rec.Body)
		}
	}
}

// BenchmarkContainerLifecycle is a launch's and an end's share of the
// container runtime: admit the image and bind a GPU, then release it.
func BenchmarkContainerLifecycle(b *testing.B) {
	images := container.DefaultImages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := container.NewRuntime(images, gpu.NewInventory(gpu.RTX3090, 1))
		spec := container.Spec{
			ID: "c", ImageName: "pytorch/pytorch:2.3-cuda12",
			Resources: container.Resources{GPUMemoryMiB: 8192},
		}
		if _, err := rt.Bind(spec); err != nil {
			b.Fatal(err)
		}
		if err := rt.Release("c"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimTransfer(b *testing.B) {
	net := netsim.New(10 * netsim.Gbps)
	net.AddNode(netsim.NodeLink{Name: "a", Access: netsim.Gbps})
	net.AddNode(netsim.NodeLink{Name: "b", Access: netsim.Gbps})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Transfer("a", "b", 1<<30, netsim.TrafficCheckpoint, benchEpoch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointStoreRestoreChain(b *testing.B) {
	store := checkpoint.NewStore(storage.NewMemStore(0))
	for seq := 1; seq <= 6; seq++ {
		ck := checkpoint.Checkpoint{JobID: "j", Seq: seq, Bytes: 1 << 20,
			Mechanism: "alc", CreatedAt: benchEpoch}
		if seq > 1 {
			ck.Incremental = true
			ck.BaseSeq = seq - 1
		}
		if err := store.Save(ck); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.RestoreChain("j"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadAdvance(b *testing.B) {
	j := workload.NewJob("bench", workload.SmallCNN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if j.Done() {
			j.RestoreTo(checkpoint.Progress{Step: 0})
		}
		j.Advance(10)
	}
}

// --- WAL durability ---

// BenchmarkWALPipelined measures concurrent append throughput against
// the write-ahead log's two-stage appender: parallel appenders coalesce
// into one fsync per group, and the next group's buffer fills and its
// write issues while the previous group's fsync is in flight on the
// sync stage.
func BenchmarkWALPipelined(b *testing.B) {
	w, err := wal.OpenWriter(b.TempDir(), wal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	var lsn atomic.Uint64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := lsn.Add(1)
			m := db.Mutation{LSN: n, Type: db.MutNodePut,
				Node: &db.NodeRecord{ID: fmt.Sprintf("node-%03d", n%200), Status: db.NodeActive,
					GPUs:         []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090", MemoryMiB: 24576}},
					RegisteredAt: benchEpoch, LastHeartbeat: benchEpoch}}
			if err := w.Append(m); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkHeartbeatHealthDurable is a health-carrying beat through the
// shipped write path: Coordinator.Heartbeat over a store logged by a
// real wal.Open with the shipped 2 ms group window, two registered
// nodes. Telemetry samples are soft state and wait on nothing; a health
// event is what still makes a beat durable — it commits the node
// after-image and then the health fold, two records and two durability
// waits in a row. The senders are closed loops, one per node. senders=1
// is alone in every commit group, so ns/op is two whole group windows
// plus two fsyncs at 2.000 fsyncs/op; senders=2 meet in one group per
// record, which the writer releases as soon as both are queued, so
// ns/op is fsync-bound at about 1.0 fsyncs/op. Both are timer- or
// disk-bound — recorded in BENCH_baseline.json but outside the
// bench-check gate. fsyncs/op counts the durability waits a beat pays,
// read off the writer's own fsync histogram, instrumented on the
// coordinator's registry as the daemon does.
func BenchmarkHeartbeatHealthDurable(b *testing.B) {
	for _, senders := range []int{1, 2} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			benchHealthBeats(b, senders)
		})
	}
}

func benchHealthBeats(b *testing.B, senders int) {
	store := db.New(0)
	mgr, err := wal.Open(b.TempDir(), store, wal.Config{GroupWindow: 2 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	clock := simclock.NewSim(benchEpoch)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := core.New(core.Config{HeartbeatInterval: time.Minute}, clock, store, ckpts, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Stop()
	if err := mgr.Writer().Instrument(coord.Metrics()); err != nil {
		b.Fatal(err)
	}
	fsyncs, err := coord.Metrics().Histogram("gpunion_wal_fsync_seconds", "", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]api.HeartbeatRequest, 2)
	for i := range reqs {
		id := fmt.Sprintf("n%d", i+1)
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}, ckpts, nil)
		defer ag.Stop()
		reg, err := coord.Register(ag.RegisterRequest("inproc://"+id, 1<<30), &agent.Client{BaseURL: "http://" + id,
			HTTPClient: &http.Client{Transport: api.InProcess{Handler: ag.Handler()}}})
		if err != nil {
			b.Fatal(err)
		}
		// An info-severity event folds (and commits) without lowering
		// the score, so the node stays healthy for any b.N.
		reqs[i] = api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: reg.LeaderEpoch},
			MachineID: id, Token: reg.Token,
			HealthEvents: []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityInfo, Value: 70}},
		}
	}
	before := fsyncs.Count()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		beats := b.N / senders
		if s == 0 {
			beats += b.N % senders
		}
		wg.Add(1)
		go func(req api.HeartbeatRequest) {
			defer wg.Done()
			for i := 0; i < beats; i++ {
				req.BeatSeq++
				clock.Advance(time.Microsecond) // a fold commits only at a later instant than the last
				if resp, err := coord.Heartbeat(req); err != nil || !resp.Acknowledged {
					b.Errorf("%s beat %d: %+v err=%v", req.MachineID, req.BeatSeq, resp, err)
					return
				}
			}
		}(reqs[s])
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(fsyncs.Count()-before)/float64(b.N), "fsyncs/op")
}

// --- Snapshot under load ---

// BenchmarkHeartbeatsDuringShardedExport measures heartbeat-commit
// throughput while ExportState runs continuously in the background. It
// takes per-shard read locks one at a time, so commits on other shards
// keep flowing — nothing quiesces the whole store.
func BenchmarkHeartbeatsDuringShardedExport(b *testing.B) {
	store := db.New(0)
	ids := heartbeatStore(store, 200)
	stop := make(chan struct{})
	done := make(chan struct{})
	var snapshots int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = store.ExportState()
			snapshots++
		}
	}()
	var seq atomic.Int64
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(seq.Add(1))
			id := ids[i%len(ids)]
			_ = store.UpdateNode(id, func(n *db.NodeRecord) {
				n.LastHeartbeat = n.LastHeartbeat.Add(time.Second)
			})
			store.AppendSample(db.Sample{Time: benchEpoch, NodeID: id,
				Metric: "gpu_utilization", Value: 0.5})
		}
	})
	b.StopTimer()
	close(stop)
	<-done
	b.ReportMetric(float64(snapshots), "snapshots")
}

// BenchmarkCrashRecovery measures a full kill/recover/verify cycle of
// the coordinator (the sim scenario behind `make verify-recovery`).
func BenchmarkCrashRecovery(b *testing.B) {
	var last sim.CrashRecoveryResult
	for i := 0; i < b.N; i++ {
		res, err := sim.RunCrashRecovery(sim.CrashRecoveryConfig{PostRecovery: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if !res.JobsIntact || res.LostJobs != 0 {
			b.Fatalf("recovery lost state: %+v", res)
		}
		last = res
	}
	b.ReportMetric(float64(last.Recovery.Replayed), "replayed_records")
	onceRecovery.Do(func() {
		fmt.Printf("\n--- Crash recovery: %d jobs intact across coordinator restart (%d WAL records replayed, snapshot=%v) ---\n",
			last.RecoveredJobs, last.Recovery.Replayed, last.Recovery.SnapshotLoaded)
	})
}

var onceRecovery sync.Once
