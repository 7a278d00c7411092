package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/heartbeat"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
)

// ScalabilityConfig parameterises the §5.3 study: "the central
// coordinator handles up to 50 nodes with sub-second scheduling
// latency. However, beyond 200 nodes, heartbeat monitoring and database
// contention could become bottlenecks."
type ScalabilityConfig struct {
	// NodeCounts is the sweep (default 10, 25, 50, 100, 200, 400, 800,
	// 2000, 5000 — the 800 point was added once the store's queue
	// queries stopped being the coordinator bottleneck; 2000 once
	// heartbeat coalescing made the write path scale with churn, not
	// fleet size; 5000 once the rack aggregation tier made coordinator
	// ingress O(racks + churn) instead of O(nodes)).
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
	// The database figures below come from the §5.3 contention model
	// (see lockModel), not from db.Store: what they compare is how many
	// critical sections a commit pattern crosses and how many locks those
	// sections spread over.
	//
	// DBOpsPerSecond is modelled per-beat commit throughput with the
	// store's lock layout (db.DefaultShards stripes), 8 concurrent
	// writers.
	DBOpsPerSecond float64
	// SingleLockOpsPerSecond is the same workload on one stripe — the
	// paper's single-lock coordinator, the §5.3 bottleneck sharding
	// removes.
	SingleLockOpsPerSecond float64
	// CoalescedBeatsPerSecond is the same heartbeat-commit demand in the
	// coalesced write path's pattern: each worker flushes its beats as
	// batches that pay one critical section per touched stripe (what
	// TouchNodes does per shard) instead of one per beat.
	CoalescedBeatsPerSecond float64
	// CoalesceSpeedup is CoalescedBeatsPerSecond / DBOpsPerSecond — the
	// write-path win of per-shard beat batching over per-beat commits.
	CoalesceSpeedup float64
	// AggRacks is the aggregation-tier shape at this fleet size (one
	// relay per ingressRackSize nodes).
	AggRacks int
	// DirectIngressPerSecond is the coordinator ingress request rate
	// with every agent beating the coordinator itself (one request per
	// beat at the fleet heartbeat interval).
	DirectIngressPerSecond float64
	// AggIngressPerSecond is the same fleet's coordinator ingress rate
	// behind per-rack aggregators: folded no-op beats arrive as one
	// request per roll-up window, only telemetry-carrying beats pass
	// through. Measured by driving the real relay on a simulated clock.
	AggIngressPerSecond float64
	// IngressReduction is DirectIngressPerSecond / AggIngressPerSecond —
	// the tier's headline: ingress cost O(racks + churn), not O(nodes).
	IngressReduction float64
	// RequiredDBOpsPerSecond is what N nodes' heartbeat processing
	// demands (≈4 database operations per beat at a 10 s interval).
	RequiredDBOpsPerSecond float64
	// Headroom is sharded capacity over demand; below ~1 the
	// coordinator's database is the bottleneck (the paper's §5.3 concern
	// beyond 200 nodes on modest hardware).
	Headroom float64
	// SingleLockHeadroom is the single-lock model's capacity over demand.
	SingleLockHeadroom float64
}

// RunScalability measures coordinator-side costs across node counts.
// Scheduler, heartbeat-monitor and relay figures are real wall-clock
// measurements of the actual components — not simulated time; the
// database throughput and headroom figures are the §5.3 contention
// model (lockModel).
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
		sched := scheduler.New(&scheduler.RoundRobin{}, scheduler.DefaultReliability())
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
		batchSize := 32
		if free < batchSize {
			batchSize = free
		}
		if batchSize < 1 {
			batchSize = 1
		}
		batchSched := scheduler.New(&scheduler.RoundRobin{}, scheduler.DefaultReliability())
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

		// --- Modelled database contention (§5.3): the store's lock
		// layout vs a single lock under the same writer load, then the
		// same beat volume committed as per-stripe batches. ---
		sharded := newLockModel(db.DefaultShards, n)
		ops := sharded.perBeatOps()
		singleOps := newLockModel(1, n).perBeatOps()
		coalOps := sharded.coalescedOps()
		coalSpeedup := 0.0
		if ops > 0 {
			coalSpeedup = coalOps / ops
		}

		// --- Coordinator ingress with and without the rack
		// aggregation tier, measured on the real relay. ---
		directIngress, aggIngress, racks := aggregatedIngress(n)
		reduction := 0.0
		if aggIngress > 0 {
			reduction = directIngress / aggIngress
		}

		// Heartbeat demand: one beat per node per 10 s, ~4 database
		// operations per beat (node update, telemetry samples, queue
		// check).
		required := float64(n) / 10 * 4
		rows = append(rows, ScalabilityRow{
			Nodes:                   n,
			MeanSchedulingLatency:   mean,
			P95SchedulingLatency:    p95,
			BatchMeanPerDecision:    batchPerDecision,
			BatchSpeedup:            speedup,
			SubSecond:               p95 < time.Second,
			HeartbeatSweepLatency:   hbLat,
			DBOpsPerSecond:          ops,
			SingleLockOpsPerSecond:  singleOps,
			CoalescedBeatsPerSecond: coalOps,
			CoalesceSpeedup:         coalSpeedup,
			AggRacks:                racks,
			DirectIngressPerSecond:  directIngress,
			AggIngressPerSecond:     aggIngress,
			IngressReduction:        reduction,
			RequiredDBOpsPerSecond:  required,
			Headroom:                ops / required,
			SingleLockHeadroom:      singleOps / required,
		})
	}
	return rows, nil
}

// Aggregation-tier shape for the ingress measurement, mirroring the
// fleet's production cadence: 64-node racks, 10 s beats, a telemetry
// sample every 6th beat (so one sample per node per minute), 30 s
// roll-up windows.
const (
	ingressRackSize       = 64
	ingressBeatEvery      = 10 * time.Second
	ingressTelemetryEvery = 6
	ingressFlushWindow    = 30 * time.Second
	ingressSpan           = 10 * time.Minute
)

// countingUpstream stands in for the coordinator on the ingress sweep:
// every IngestAggregated call is one coordinator ingress request.
type countingUpstream struct {
	mu       sync.Mutex
	requests uint64
}

func (u *countingUpstream) IngestAggregated(api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	u.mu.Lock()
	u.requests++
	u.mu.Unlock()
	return api.AggregatedBeatResponse{Acknowledged: true}, nil
}

// aggregatedIngress measures coordinator ingress request rates for an
// n-node steady-state fleet, direct vs. behind per-rack relays. The
// aggregated arm drives the real internal/aggregator on a simulated
// clock — telemetry-carrying beats pass through (each one upstream
// request, draining the parked window), off-cadence beats fold and
// ride the window's flush timer — so the figure reflects the relay's
// actual forwarding behavior, not a formula. The direct arm is exact:
// one ingress request per beat. Telemetry phase is staggered across
// nodes (agents boot at different times), spreading pass-throughs
// evenly instead of synchronizing the whole fleet's sample beats.
func aggregatedIngress(n int) (directPerSec, aggPerSec float64, racks int) {
	clock := simclock.NewSim(Epoch)
	up := &countingUpstream{}
	racks = (n + ingressRackSize - 1) / ingressRackSize
	aggs := make([]*aggregator.Aggregator, racks)
	for i := range aggs {
		aggs[i] = aggregator.New(aggregator.Config{
			ID:            fmt.Sprintf("rack-%03d", i),
			FlushInterval: ingressFlushWindow,
		}, clock, up)
	}
	defer func() {
		for _, g := range aggs {
			g.Stop()
		}
	}()
	telemetry := []gpu.Telemetry{{
		DeviceID: "gpu0", Model: "RTX 3090",
		Utilization: 0.5, UsedMemMiB: 8192, TotalMemMiB: 24576,
		TemperatureC: 60, PowerW: 250,
	}}
	var beats uint64
	seq := uint64(0)
	for elapsed := time.Duration(0); elapsed < ingressSpan; elapsed += ingressBeatEvery {
		seq++
		for i := 0; i < n; i++ {
			req := api.HeartbeatRequest{
				MachineID: fmt.Sprintf("node-%04d", i),
				BeatSeq:   seq,
			}
			if (seq+uint64(i))%ingressTelemetryEvery == 0 {
				req.Telemetry = telemetry
			}
			_, _ = aggs[i/ingressRackSize].Ingest(req)
			beats++
		}
		clock.Advance(ingressBeatEvery)
	}
	// Drain windows still parked at the end of the span.
	clock.Advance(ingressFlushWindow)
	up.mu.Lock()
	requests := up.requests
	up.mu.Unlock()
	span := ingressSpan.Seconds()
	return float64(beats) / span, float64(requests) / span, racks
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
	sorted := append([]time.Duration(nil), lat...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean = sum / time.Duration(len(sorted))
	p95 = sorted[int(0.95*float64(len(sorted)-1))]
	return mean, p95
}

// The §5.3 contention model. The paper predicts that beyond ~200 nodes
// "database contention could become" a bottleneck of its single-lock
// coordinator. The model reproduces that prediction without touching
// the production store: a commit is a critical section that holds one
// of a fixed set of locks for modelOpDelay (a disk-backed database's
// per-operation latency), and modelWorkers writers each issue
// modelOpsPerWorker heartbeat commits. A fixed op count — rather than a
// wall-clock window — makes the work deterministic; only the elapsed
// time varies with the machine. One stripe is the paper's coordinator,
// db.DefaultShards stripes is today's store.
const (
	modelOpDelay      = 50 * time.Microsecond
	modelWorkers      = 8
	modelOpsPerWorker = 120
)

// lockModel is the striped lock the model's critical sections contend
// on. stripeOf assigns every node a stripe pseudo-randomly (fixed seed,
// so runs repeat), standing in for the store's hash of the node ID.
type lockModel struct {
	stripes  []sync.Mutex
	stripeOf []int
}

func newLockModel(stripes, nodes int) *lockModel {
	m := &lockModel{stripes: make([]sync.Mutex, stripes), stripeOf: make([]int, nodes)}
	rng := rand.New(rand.NewSource(1))
	for i := range m.stripeOf {
		m.stripeOf[i] = rng.Intn(stripes)
	}
	return m
}

// section is one modelled commit: the stripe's lock held across the
// modelled I/O latency.
func (m *lockModel) section(stripe int) {
	m.stripes[stripe].Lock()
	time.Sleep(modelOpDelay)
	m.stripes[stripe].Unlock()
}

// run starts modelWorkers writers and returns heartbeat commits per
// second.
func (m *lockModel) run(worker func(w int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < modelWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			worker(w)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(modelWorkers*modelOpsPerWorker) / elapsed
}

// perBeatOps commits every beat on its own: one critical section per
// beat on the beating node's stripe.
func (m *lockModel) perBeatOps() float64 {
	nodes := len(m.stripeOf)
	return m.run(func(w int) {
		for n := 0; n < modelOpsPerWorker; n++ {
			m.section(m.stripeOf[(w*31+n)%nodes])
		}
	})
}

// coalescedOps commits the same beat volume in the coalesced write
// path's pattern. Each worker owns a disjoint stride of the fleet and
// flushes one batch per pass over its slice — the shape a coordinator
// flush window produces — and a batch pays one critical section per
// stripe it touches, in stripe order, rather than one per beat.
func (m *lockModel) coalescedOps() float64 {
	nodes := len(m.stripeOf)
	return m.run(func(w int) {
		own := (nodes - w + modelWorkers - 1) / modelWorkers // nodes w, w+workers, …
		if own < 1 {
			own = 1
		}
		touched := make([]bool, len(m.stripes))
		for done := 0; done < modelOpsPerWorker; {
			round := min(modelOpsPerWorker-done, own)
			clear(touched)
			for i := 0; i < round; i++ {
				node := (w + ((done+i)%own)*modelWorkers) % nodes
				touched[m.stripeOf[node]] = true
			}
			for stripe, hit := range touched {
				if hit {
					m.section(stripe)
				}
			}
			done += round
		}
	})
}
