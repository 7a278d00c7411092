package sim

import (
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/scheduler"
	"gpunion/internal/workload"
)

// This file holds the ablation studies for two design choices
// (docs/BENCHMARKS.md, "What each benchmark measures"): the
// checkpoint-interval trade-off behind §3.5's
// "checkpoint frequency optimization", and the scheduling-strategy
// choice behind §3.2's "multiple allocation strategies".

// IntervalPoint is one checkpoint-interval sweep measurement.
type IntervalPoint struct {
	Interval time.Duration
	// MeanEmergencyLoss is compute redone per emergency displacement.
	MeanEmergencyLoss time.Duration
	// CheckpointBytes is total backup traffic over the window.
	CheckpointBytes int64
	// PeakUtilization is the backup traffic's worst five-minute share
	// of the backbone.
	PeakUtilization float64
}

// RunCheckpointIntervalSweep quantifies the §3.5 trade-off: shorter
// intervals bound emergency work loss tighter but ship more backup
// traffic. Each point runs the Fig. 3 migration experiment (for loss)
// and the traffic experiment (for bandwidth) at the same cadence.
func RunCheckpointIntervalSweep(intervals []time.Duration, seed int64) ([]IntervalPoint, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{5 * time.Minute, 10 * time.Minute, 30 * time.Minute}
	}
	var out []IntervalPoint
	for _, iv := range intervals {
		fig3, err := RunFig3(Fig3Config{Seed: seed, CheckpointInterval: iv,
			// All-emergency interruptions give the loss statistic the
			// most samples.
			ScenarioWeights: [3]float64{0, 1, 0}})
		if err != nil {
			return nil, err
		}
		traffic, err := RunTraffic(TrafficConfig{Hours: 8, Jobs: 20, Seed: seed,
			CheckpointInterval: iv})
		if err != nil {
			return nil, err
		}
		out = append(out, IntervalPoint{
			Interval:          iv,
			MeanEmergencyLoss: fig3.Emergency.MeanWorkLost,
			CheckpointBytes:   traffic.TotalCheckpointBytes,
			PeakUtilization:   traffic.PeakUtilization,
		})
	}
	return out, nil
}

// StrategyResult compares one scheduling strategy on a heterogeneous
// campus under a mixed workload.
type StrategyResult struct {
	Strategy string
	// Utilization is campus GPU utilization over the window.
	Utilization float64
	// LargeJobsPlaced counts big-memory jobs that found an A100;
	// strategies that squander large devices on small jobs strand them.
	LargeJobsPlaced int
	// LargeJobsStranded counts big-memory jobs still waiting at the end.
	LargeJobsStranded int
	// MeanLargeJobWait is the average queueing delay of big-memory
	// jobs: the cost of letting small work occupy the A100s.
	MeanLargeJobWait time.Duration
}

// RunStrategyAblation runs the same workload stream under each
// scheduling strategy. The stream mixes many small jobs with a few
// 40 GiB jobs that only fit the A100s: best-fit should keep the big
// devices free for them, while round-robin and least-loaded may strand
// them behind small work.
func RunStrategyAblation(seed int64) ([]StrategyResult, error) {
	mkStrategy := map[string]func() scheduler.Strategy{
		"round-robin":  func() scheduler.Strategy { return &scheduler.RoundRobin{} },
		"best-fit":     func() scheduler.Strategy { return scheduler.BestFit{} },
		"least-loaded": func() scheduler.Strategy { return scheduler.LeastLoaded{} },
	}
	defs := []NodeDef{
		{ID: "ws-1", GPUs: repeatSpec(gpu.RTX3090, 2), Lab: "a"},
		{ID: "ws-2", GPUs: repeatSpec(gpu.RTX3090, 2), Lab: "b"},
		{ID: "big", GPUs: repeatSpec(gpu.A100, 2), Lab: "c"},
	}
	span := 24 * time.Hour

	var out []StrategyResult
	for _, name := range []string{"round-robin", "best-fit", "least-loaded"} {
		campus, err := NewCampus(defs, CampusConfig{
			HeartbeatInterval: time.Minute,
			ProgressTick:      time.Minute,
			Strategy:          mkStrategy[name](),
		})
		if err != nil {
			return nil, err
		}

		demand := NewDemand(seed)
		rng := demand.Rand()
		var largeIDs []string
		// Small jobs arrive steadily; a large job every ~4 hours.
		demand.PoissonArrivalsMod(campus.Clock, Epoch, span, 30,
			func(time.Time) float64 { return 1 }, func(time.Time) {
				spec := jitterSpec(rng, workload.SmallCNN)
				_, _ = campus.Coord.SubmitJob(TrainingJobSubmission("small", spec, 10*time.Minute))
			})
		demand.PoissonArrivalsMod(campus.Clock, Epoch, span, 6,
			func(time.Time) float64 { return 1 }, func(time.Time) {
				spec := workload.LargeTransformer // 40 GiB: A100 only
				spec.TotalSteps /= 20             // hours-scale
				id, err := campus.Coord.SubmitJob(TrainingJobSubmission("large", spec, 10*time.Minute))
				if err == nil {
					largeIDs = append(largeIDs, id)
				}
			})

		campus.Run(span)

		res := StrategyResult{Strategy: name,
			Utilization: campus.Utilization(campus.Clock.Now())}
		var waits time.Duration
		for _, id := range largeIDs {
			st, err := campus.Coord.JobStatus(id)
			if err != nil {
				continue
			}
			if st.State == db.JobPending {
				res.LargeJobsStranded++
				waits += campus.Clock.Now().Sub(st.Submitted)
			} else {
				res.LargeJobsPlaced++
				waits += st.Started.Sub(st.Submitted)
			}
		}
		if n := res.LargeJobsPlaced + res.LargeJobsStranded; n > 0 {
			res.MeanLargeJobWait = waits / time.Duration(n)
		}
		campus.Stop()
		out = append(out, res)
	}
	return out, nil
}
