// Package sim is GPUnion's campus discrete-event simulation: the
// substrate that reproduces the paper's evaluation (§4) without a
// physical testbed. It assembles the *real* platform components —
// coordinator, provider agents, container runtime, checkpoint store,
// LAN model — on a simulated clock, drives them with stochastic demand
// and provider-behaviour processes, and measures the same quantities the
// paper reports.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/workload"
)

// Epoch is the simulation start time (beginning of a semester).
var Epoch = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

// NodeDef describes one campus server.
type NodeDef struct {
	// ID names the node.
	ID string
	// GPUs lists the installed devices.
	GPUs []gpu.Spec
	// Lab is the owning research group (demand attribution).
	Lab string
}

// PaperCampus returns the paper's deployment: 8 workstations with one
// RTX 3090 each, one server with 8×4090, one with 2×A100, one with
// 4×A6000 (the CPU-only coordinator is implicit).
func PaperCampus() []NodeDef {
	var defs []NodeDef
	for i := 1; i <= 8; i++ {
		defs = append(defs, NodeDef{
			ID:   fmt.Sprintf("ws-%d", i),
			GPUs: []gpu.Spec{gpu.RTX3090},
			Lab:  fmt.Sprintf("lab-%d", i),
		})
	}
	eight := make([]gpu.Spec, 8)
	for i := range eight {
		eight[i] = gpu.RTX4090
	}
	defs = append(defs, NodeDef{ID: "srv-4090", GPUs: eight, Lab: "lab-9"})
	defs = append(defs, NodeDef{ID: "srv-a100", GPUs: []gpu.Spec{gpu.A100, gpu.A100}, Lab: "lab-10"})
	defs = append(defs, NodeDef{ID: "srv-a6000", GPUs: []gpu.Spec{gpu.A6000, gpu.A6000, gpu.A6000, gpu.A6000}, Lab: "lab-11"})
	return defs
}

// TotalGPUs counts devices across node definitions.
func TotalGPUs(defs []NodeDef) int {
	n := 0
	for _, d := range defs {
		n += len(d.GPUs)
	}
	return n
}

// Campus is an assembled in-process GPUnion deployment on a simulated
// clock: one standalone coordinator replica at "coordinator" and one
// agent per node definition, on one World.
type Campus struct {
	*World
	Coord  *core.Coordinator
	Agents map[string]*agent.Agent
	Defs   []NodeDef
	// Health holds each agent's injectable health source when the
	// assembly was built WithHealthSources (gray-failure scripting).
	Health map[string]*gpu.FakeHealthSource

	rep *core.Replica
	cfg CampusConfig
}

// CampusConfig tunes the assembly.
type CampusConfig struct {
	// HeartbeatInterval between agent reports (default 1 min).
	HeartbeatInterval time.Duration
	// ProgressTick is the agent work-advance granularity (default 30 s).
	ProgressTick time.Duration
	// WithNetwork attaches the LAN model (needed by the traffic study).
	WithNetwork bool
	// ForceFullCheckpoints disables incremental captures on every agent
	// (the traffic ablation's "full" arm).
	ForceFullCheckpoints bool
	// TrackCheckpointTraffic replays each checkpoint save as a LAN
	// transfer from the capturing node to the coordinator's store, so
	// the accountant sees backup traffic. Requires WithNetwork.
	TrackCheckpointTraffic bool
	// Strategy selects the scheduling strategy (nil = round-robin).
	Strategy scheduler.Strategy
	// WithHealthSources wires an injectable gpu.FakeHealthSource into
	// every agent, exposed via Campus.Health — the seam gray-failure
	// scenarios push XID/thermal/slowdown events through.
	WithHealthSources bool
}

// NewCampus builds a deployment from node definitions. All agents share
// one LAN-accessible checkpoint store, mirroring the paper's
// "LAN-accessible file system" checkpoint target.
func NewCampus(defs []NodeDef, cfg CampusConfig) (*Campus, error) {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Minute
	}
	if cfg.ProgressTick <= 0 {
		cfg.ProgressTick = 30 * time.Second
	}
	w := NewWorld(Epoch)
	if cfg.WithNetwork {
		w.attachLAN(defs)
	}
	rep, err := w.Open("coordinator", core.ReplicaConfig{Coordinator: core.Config{
		HeartbeatInterval: cfg.HeartbeatInterval,
		Strategy:          cfg.Strategy,
	}})
	if err != nil {
		return nil, err
	}
	rep.Start()

	c := &Campus{
		World: w, Coord: rep.Coordinator(), Agents: make(map[string]*agent.Agent),
		Defs: defs, rep: rep, cfg: cfg,
	}
	if cfg.WithHealthSources {
		c.Health = make(map[string]*gpu.FakeHealthSource, len(defs))
	}
	if cfg.TrackCheckpointTraffic && w.Net != nil {
		w.Trace.Observe(func(ev obs.Event) {
			if ev.Kind != obs.KindJobCheckpoint {
				return
			}
			bytes, _ := strconv.ParseInt(ev.Detail["bytes"], 10, 64)
			if bytes <= 0 || ev.Node == "" {
				return
			}
			_, _ = w.Net.Transfer(ev.Node, lanStorage, bytes, netsim.TrafficCheckpoint, ev.Time)
		})
	}

	for _, d := range defs {
		if cfg.WithHealthSources {
			c.Health[d.ID] = gpu.NewFakeHealthSource()
		}
		if err := c.Reboot(d.ID); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Reboot starts a node's agent, as the daemon starts when the machine
// powers on: a running one — departed, say — is stopped first, and a
// fresh one boots under the same ID, devices and health source and
// joins.
func (c *Campus) Reboot(id string) error {
	i := slices.IndexFunc(c.Defs, func(d NodeDef) bool { return d.ID == id })
	if i < 0 {
		return fmt.Errorf("sim: no node %q", id)
	}
	if ag := c.Agents[id]; ag != nil {
		ag.Stop()
	}
	acfg := agent.Config{
		MachineID: id, Kernel: "5.15",
		ProgressTick:         c.cfg.ProgressTick,
		ForceFullCheckpoints: c.cfg.ForceFullCheckpoints,
	}
	if src, ok := c.Health[id]; ok {
		acfg.Health = src
	}
	ag, err := c.Boot(acfg, c.Defs[i].GPUs, "coordinator")
	c.Agents[id] = ag
	return err
}

// Run advances the simulation by d.
func (c *Campus) Run(d time.Duration) {
	c.Clock.Advance(d)
}

// Stop cancels background timers.
func (c *Campus) Stop() {
	_ = c.rep.Kill()
	for _, ag := range c.Agents {
		ag.Stop()
	}
}

// BusyGPUTime sums allocation-episode durations across all jobs up to
// now — the numerator of campus-wide utilization.
func (c *Campus) BusyGPUTime(now time.Time) time.Duration {
	var busy time.Duration
	for _, a := range c.Coord.DB().Allocations() {
		end := a.End
		if end.IsZero() {
			end = now
		}
		if end.After(a.Start) {
			busy += end.Sub(a.Start)
		}
	}
	return busy
}

// Utilization returns campus-wide GPU utilization over [Epoch, now]:
// busy device-time divided by total device-time.
func (c *Campus) Utilization(now time.Time) float64 {
	total := time.Duration(TotalGPUs(c.Defs)) * now.Sub(Epoch)
	if total <= 0 {
		return 0
	}
	u := float64(c.BusyGPUTime(now)) / float64(total)
	if u > 1 {
		u = 1
	}
	return u
}

// Demand models stochastic job arrivals with a diurnal weekday pattern.
type Demand struct {
	rng *rand.Rand
}

// NewDemand creates a seeded demand generator.
func NewDemand(seed int64) *Demand {
	return &Demand{rng: rand.New(rand.NewSource(seed))}
}

// Rand exposes the generator's randomness for scenario scripting.
func (d *Demand) Rand() *rand.Rand { return d.rng }

// diurnalFactor scales arrival intensity by hour-of-week: working hours
// are busiest, nights quiet, weekends light — the temporal
// underutilization pattern the paper's introduction describes.
func diurnalFactor(t time.Time) float64 {
	h := t.Hour()
	switch wd := t.Weekday(); {
	case wd == time.Saturday || wd == time.Sunday:
		return 0.35
	case h >= 9 && h < 19:
		return 1.0
	case h >= 19 && h < 24:
		return 0.6
	default:
		return 0.2
	}
}

// PoissonArrivals schedules fn at Poisson arrival times with base rate
// ratePerDay (modulated by the diurnal factor) over [start, start+span],
// returning the number of arrivals scheduled.
func (d *Demand) PoissonArrivals(clock *simclock.Sim, start time.Time, span time.Duration, ratePerDay float64, fn func(at time.Time)) int {
	return d.PoissonArrivalsMod(clock, start, span, ratePerDay, diurnalFactor, fn)
}

// PoissonArrivalsMod is PoissonArrivals with a custom intensity
// modulation (0..1). Opportunistic background work uses the inverted
// pattern: it fills nights and weekends, when interactive users are
// away (§4: "automated allocation of opportunistic workloads during
// idle periods").
func (d *Demand) PoissonArrivalsMod(clock *simclock.Sim, start time.Time, span time.Duration, ratePerDay float64, mod func(time.Time) float64, fn func(at time.Time)) int {
	n := 0
	t := start
	end := start.Add(span)
	for {
		// Thinning: draw from the max rate, accept by the modulation.
		maxRate := ratePerDay / (24 * 3600) // events per second
		if maxRate <= 0 {
			return n
		}
		dt := time.Duration(d.rng.ExpFloat64() / maxRate * float64(time.Second))
		t = t.Add(dt)
		if !t.Before(end) {
			return n
		}
		if d.rng.Float64() > mod(t) {
			continue
		}
		at := t
		delay := at.Sub(clock.Now())
		if delay < 0 {
			delay = 0
		}
		clock.AfterFunc(delay, func() { fn(at) })
		n++
	}
}

// OffPeakFactor is the inverse demand pattern: strong at night and on
// weekends, weak during working hours.
func OffPeakFactor(t time.Time) float64 {
	h := t.Hour()
	switch wd := t.Weekday(); {
	case wd == time.Saturday || wd == time.Sunday:
		return 1.0
	case h >= 9 && h < 19:
		return 0.25
	case h >= 19 && h < 24:
		return 0.7
	default:
		return 1.0
	}
}

// TrainingJobSubmission builds a batch submission for a corpus job.
func TrainingJobSubmission(user string, spec workload.TrainingSpec, ckptInterval time.Duration) api.SubmitJobRequest {
	return api.SubmitJobRequest{
		User: user, Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB:             spec.GPUMemMiB,
		CapabilityMajor:       spec.MinCapability.Major,
		CapabilityMinor:       spec.MinCapability.Minor,
		CheckpointIntervalSec: int(ckptInterval / time.Second),
		Training:              &spec,
	}
}

// SessionSubmission builds an interactive-session submission.
// Interactive work is time-sensitive, so it carries elevated priority
// (§3.2: "assignment based on priority for time-sensitive workloads").
func SessionSubmission(user string, s workload.Session) api.SubmitJobRequest {
	return api.SubmitJobRequest{
		User: user, Kind: "interactive", ImageName: "gpunion/jupyter-dl:latest",
		Priority:       10,
		GPUMemMiB:      s.GPUMemMiB,
		SessionSeconds: int(s.Duration / time.Second),
	}
}
