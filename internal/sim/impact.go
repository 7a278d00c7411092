package sim

import (
	"fmt"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/workload"
)

// ImpactConfig parameterises the training-impact study (§4 "Training
// Impact": jobs experiencing 2–4 interruptions showed only 3–7%
// increases in total training time; memory-intensive models were more
// sensitive because their checkpoints take longer to create).
type ImpactConfig struct {
	// MaxInterruptions sweeps 0..MaxInterruptions (default 6).
	MaxInterruptions int
	// CheckpointInterval is the periodic ALC cadence (default 10 min).
	CheckpointInterval time.Duration
	// Seed drives interruption jitter.
	Seed int64
}

// ImpactRow is one (job class, interruption count) measurement.
type ImpactRow struct {
	Class           workload.Class
	MemoryIntensive bool
	Interruptions   int
	// BaselineTime is the uninterrupted completion time.
	BaselineTime time.Duration
	// InterruptedTime is the completion time with the interruptions.
	InterruptedTime time.Duration
}

// IncreasePct is the relative training-time inflation in percent.
func (r ImpactRow) IncreasePct() float64 {
	if r.BaselineTime <= 0 {
		return 0
	}
	return 100 * float64(r.InterruptedTime-r.BaselineTime) / float64(r.BaselineTime)
}

// impactSubjects are the studied job profiles: a regular CNN, a regular
// transformer, and a memory-intensive transformer (large state, long
// checkpoint creation).
func impactSubjects() []workload.TrainingSpec {
	cnn := workload.SmallCNN
	cnn.TotalSteps *= 8 // ≈ 9 h on a 3090

	tr := workload.SmallTransformer
	tr.TotalSteps *= 3 // ≈ 10 h

	heavy := workload.SmallTransformer
	heavy.TotalSteps *= 3
	heavy.StateBytes = 12_000_000_000 // memory-intensive: 12 GB state
	heavy.GPUMemMiB = 20000
	return []workload.TrainingSpec{cnn, tr, heavy}
}

// RunTrainingImpact measures completion-time inflation as a function of
// interruption count, one platform run per (subject, count) cell.
func RunTrainingImpact(cfg ImpactConfig) ([]ImpactRow, error) {
	if cfg.MaxInterruptions <= 0 {
		cfg.MaxInterruptions = 6
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * time.Minute
	}
	var rows []ImpactRow
	for _, spec := range impactSubjects() {
		baseline, err := runImpactCell(spec, 0, cfg)
		if err != nil {
			return nil, err
		}
		for k := 0; k <= cfg.MaxInterruptions; k++ {
			t, err := runImpactCell(spec, k, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ImpactRow{
				Class:           spec.Class,
				MemoryIntensive: spec.MemoryIntensive(),
				Interruptions:   k,
				BaselineTime:    baseline,
				InterruptedTime: t,
			})
		}
	}
	return rows, nil
}

// runImpactCell runs one job to completion on a two-node campus,
// emergency-interrupting its host k times at evenly spread points, and
// returns the completion time.
func runImpactCell(spec workload.TrainingSpec, k int, cfg ImpactConfig) (time.Duration, error) {
	campus, err := NewCampus([]NodeDef{
		{ID: "node-a", GPUs: repeatSpec(gpu.RTX3090, 1), Lab: "a"},
		{ID: "node-b", GPUs: repeatSpec(gpu.RTX3090, 1), Lab: "b"},
	}, CampusConfig{
		HeartbeatInterval: 30 * time.Second,
		ProgressTick:      15 * time.Second,
		WithNetwork:       true,
	})
	if err != nil {
		return 0, err
	}
	defer campus.Stop()

	jobID, err := campus.Coord.SubmitJob(TrainingJobSubmission("impact", spec, cfg.CheckpointInterval))
	if err != nil {
		return 0, err
	}

	baseline := spec.RunTime(gpu.RTX3090)
	// Interruptions spread across the expected run: at i/(k+1) of it.
	for i := 1; i <= k; i++ {
		at := time.Duration(float64(baseline) * float64(i) / float64(k+1))
		campus.Clock.AfterFunc(at, func() {
			st, err := campus.Coord.JobStatus(jobID)
			if err != nil || st.State != db.JobRunning {
				return
			}
			host := campus.Agents[st.NodeID]
			if host == nil || host.Departed() {
				return
			}
			host.Depart(api.DepartEmergency, 0)
			// The provider's machine comes back half an hour later.
			campus.Clock.AfterFunc(30*time.Minute, func() { _ = campus.Reboot(st.NodeID) })
		})
	}

	// Run until completion (generous horizon: 4× the baseline).
	horizon := Epoch.Add(4*baseline + 24*time.Hour)
	for campus.Clock.Now().Before(horizon) {
		campus.Run(time.Hour)
		st, err := campus.Coord.JobStatus(jobID)
		if err != nil {
			return 0, err
		}
		if st.State == db.JobCompleted {
			return st.Finished.Sub(st.Submitted), nil
		}
	}
	return 0, fmt.Errorf("sim: job %s did not complete within the horizon (k=%d)", jobID, k)
}
