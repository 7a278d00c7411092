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
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/scheduler"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
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
// clock.
type Campus struct {
	Clock  *simclock.Sim
	Coord  *core.Coordinator
	Agents map[string]*agent.Agent
	Ckpts  *checkpoint.Store
	Net    *netsim.Network
	Defs   []NodeDef
	// Health holds each agent's injectable health source when the
	// assembly was built WithHealthSources (gray-failure scripting).
	Health map[string]*gpu.FakeHealthSource

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
	clock := simclock.NewSim(Epoch)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))

	var net *netsim.Network
	storageNode := ""
	if cfg.WithNetwork {
		net = netsim.New(10 * netsim.Gbps)
		net.AddNode(netsim.NodeLink{Name: "coordinator", Access: 10 * netsim.Gbps, Latency: 150 * time.Microsecond})
		for _, d := range defs {
			net.AddNode(netsim.NodeLink{Name: d.ID, Access: netsim.Gbps, Latency: 250 * time.Microsecond})
		}
		storageNode = "coordinator"
	}

	coord, err := core.New(core.Config{
		HeartbeatInterval: cfg.HeartbeatInterval,
		Strategy:          cfg.Strategy,
		Net:               net,
		StorageNode:       storageNode,
	}, clock, db.New(0), ckpts, nil)
	if err != nil {
		return nil, err
	}

	c := &Campus{
		Clock: clock, Coord: coord, Agents: make(map[string]*agent.Agent),
		Ckpts: ckpts, Net: net, Defs: defs, cfg: cfg,
	}
	if cfg.WithHealthSources {
		c.Health = make(map[string]*gpu.FakeHealthSource, len(defs))
	}
	if cfg.TrackCheckpointTraffic && net != nil {
		coord.Trace().Observe(func(ev obs.Event) {
			if ev.Kind != obs.KindJobCheckpoint {
				return
			}
			bytes, _ := strconv.ParseInt(ev.Detail["bytes"], 10, 64)
			if bytes <= 0 || ev.Node == "" {
				return
			}
			_, _ = net.Transfer(ev.Node, "coordinator", bytes, netsim.TrafficCheckpoint, ev.Time)
		})
	}

	for _, d := range defs {
		if cfg.WithHealthSources {
			c.Health[d.ID] = gpu.NewFakeHealthSource()
		}
		if err := c.boot(d); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// boot starts d's agent, as the daemon starts when the machine powers
// on, and joins it to the coordinator. Every boot of a node gets the
// same ID, devices and health source.
func (c *Campus) boot(d NodeDef) error {
	acfg := agent.Config{
		MachineID: d.ID, Kernel: "5.15",
		ProgressTick:         c.cfg.ProgressTick,
		ForceFullCheckpoints: c.cfg.ForceFullCheckpoints,
	}
	if src, ok := c.Health[d.ID]; ok {
		acfg.Health = src
	}
	ag := agent.New(acfg, c.Clock, d.GPUs, c.Ckpts, c.Coord.Trace())
	ag.SetEndpoints([]agent.Endpoint{localEndpoint("coordinator", c.Coord, ag)})
	if err := joinLocal(ag); err != nil {
		return err
	}
	c.Agents[d.ID] = ag
	return nil
}

// Reboot brings a provider back from a departure the way its machine
// comes back: the departed agent is stopped and a fresh one boots under
// the same ID and joins.
func (c *Campus) Reboot(id string) error {
	i := slices.IndexFunc(c.Defs, func(d NodeDef) bool { return d.ID == id })
	if i < 0 {
		return fmt.Errorf("sim: no node %q", id)
	}
	c.Agents[id].Stop()
	return c.boot(c.Defs[i])
}

// localEndpoint names coord as one of ag's endpoints, reached in
// process through both daemons' handlers (core.NewInProcessClient).
func localEndpoint(id string, coord *core.Coordinator, ag *agent.Agent) agent.Endpoint {
	return agent.Endpoint{ID: id, Link: core.NewInProcessClient(coord, ag)}
}

// joinLocal registers an in-process agent through the first of its
// endpoints that accepts it (agent.JoinAny, as the daemon starts) under
// the sims' address scheme and 1 TiB of advertised checkpoint storage.
func joinLocal(ag *agent.Agent) error {
	_, err := ag.JoinAny("inproc://"+ag.MachineID(), 1<<40)
	return err
}

// Run advances the simulation by d.
func (c *Campus) Run(d time.Duration) {
	c.Clock.Advance(d)
}

// Stop cancels background timers.
func (c *Campus) Stop() {
	c.Coord.Stop()
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
