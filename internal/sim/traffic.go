package sim

import (
	"time"

	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/workload"
)

// TrafficConfig parameterises the network-traffic analysis (§4:
// incremental checkpoint backup consumes "less than 2% of available
// campus bandwidth during peak operation periods").
type TrafficConfig struct {
	// Hours is the observation window (default 24).
	Hours int
	// Jobs is the concurrent training population (default 20).
	Jobs int
	// CheckpointInterval is the backup cadence (default 10 min).
	CheckpointInterval time.Duration
	// ForceFull disables incremental captures (the ablation arm).
	ForceFull bool
	// Seed drives the workload draw.
	Seed int64
}

// TrafficResult reports backup-traffic pressure on the campus LAN.
type TrafficResult struct {
	// TotalCheckpointBytes is everything shipped to backup storage.
	TotalCheckpointBytes int64
	// PeakUtilization is the worst five-minute share of the campus
	// backbone consumed by checkpoint traffic (the paper's "< 2% during
	// peak operation periods").
	PeakUtilization float64
	// MeanUtilization is the average share over the whole window.
	MeanUtilization float64
	// Checkpoints is the number of captures taken.
	Checkpoints int
	// BackboneGbps echoes the modelled backbone capacity.
	BackboneGbps float64
}

// RunTraffic runs a loaded campus and accounts every checkpoint save as
// a LAN transfer to the coordinator's backup store.
func RunTraffic(cfg TrafficConfig) (TrafficResult, error) {
	if cfg.Hours <= 0 {
		cfg.Hours = 24
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 20
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 10 * time.Minute
	}
	span := time.Duration(cfg.Hours) * time.Hour

	campus, err := NewCampus(PaperCampus(), CampusConfig{
		HeartbeatInterval:      time.Minute,
		ProgressTick:           time.Minute,
		WithNetwork:            true,
		ForceFullCheckpoints:   cfg.ForceFull,
		TrackCheckpointTraffic: true,
	})
	if err != nil {
		return TrafficResult{}, err
	}
	defer campus.Stop()

	ckptCount := 0
	campus.Coord.Trace().Observe(func(ev obs.Event) {
		if ev.Kind == obs.KindJobCheckpoint {
			ckptCount++
		}
	})

	// A steady training population with multi-hour jobs, submitted
	// staggered over the first two hours so checkpoint cadences
	// desynchronize — as they would with real users. Placement
	// constraints keep everything on 24 GiB devices.
	g := workload.NewGenerator(cfg.Seed)
	stagger := 2 * time.Hour / time.Duration(cfg.Jobs)
	submitted := 0
	for _, j := range g.TrainingCorpus(cfg.Jobs * 2) {
		if submitted >= cfg.Jobs {
			break
		}
		spec := j.Spec
		if spec.GPUMemMiB > 20000 {
			spec = workload.SmallTransformer
			spec.TotalSteps *= 4
		}
		spec.TotalSteps *= 4
		at := time.Duration(submitted) * stagger
		submitted++
		campus.Clock.AfterFunc(at, func() {
			_, _ = campus.Coord.SubmitJob(TrainingJobSubmission("traffic", spec, cfg.CheckpointInterval))
		})
	}

	campus.Run(span)

	acct := campus.Net.Accountant()
	res := TrafficResult{
		TotalCheckpointBytes: acct.TotalBytes(netsim.TrafficCheckpoint),
		PeakUtilization: acct.PeakWindowUtilization(netsim.TrafficCheckpoint,
			campus.Net.Backbone(), 5*time.Minute, time.Minute),
		MeanUtilization: acct.WindowUtilization(netsim.TrafficCheckpoint,
			campus.Net.Backbone(), Epoch, Epoch.Add(span)),
		BackboneGbps: float64(campus.Net.Backbone()) / 1e9,
		Checkpoints:  ckptCount,
	}
	return res, nil
}
