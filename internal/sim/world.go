package sim

import (
	"errors"
	"net/http"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

// World is one simulated deployment: the simulated clock, the LAN
// checkpoint store and the flight recorder that every coordinator
// incarnation and every agent share, the optional LAN model, and the
// address book every request crosses. A coordinator is a core.Replica
// opened and served at an address (Open); an agent process boots at
// its machine ID and joins (Boot). Campus, the scripted crash-recovery
// and failover runs, the chaos harness and the examples each run on
// one.
type World struct {
	Clock *simclock.Sim
	// Ckpts is the LAN-accessible checkpoint store: like a WAL
	// directory, it outlives every coordinator process.
	Ckpts *checkpoint.Store
	// Trace is the one flight recorder: every coordinator incarnation
	// and every agent records into it, so the timeline is continuous
	// across crashes and failovers.
	Trace *obs.Recorder
	// Net is the LAN model (attachLAN); nil without one.
	Net *netsim.Network
	// Hosts is the address book: each coordinator at its address, each
	// agent at its machine ID.
	Hosts *api.Hosts
}

// lanStorage is the LAN node that holds the checkpoint store: the
// coordinator's machine.
const lanStorage = "coordinator"

// NewWorld starts an empty deployment whose clock reads start, with an
// in-memory checkpoint store and a recorder of obs.DefaultCapacity.
func NewWorld(start time.Time) *World {
	clock := simclock.NewSim(start)
	return &World{Clock: clock, Ckpts: checkpoint.NewStore(storage.NewMemStore(0)),
		Trace: obs.NewRecorder(clock, 0), Hosts: &api.Hosts{}}
}

// attachLAN gives the world a 10 Gbps campus backbone: the
// coordinator's machine, which holds the checkpoint store, on a
// 10 Gbps access link and each node in defs on 1 Gbps. Every restore
// from then on crosses it (ckptPath.Fetch).
func (w *World) attachLAN(defs []NodeDef) {
	w.Net = netsim.New(10 * netsim.Gbps)
	w.Net.AddNode(netsim.NodeLink{Name: lanStorage, Access: 10 * netsim.Gbps, Latency: 150 * time.Microsecond})
	for _, d := range defs {
		w.Net.AddNode(netsim.NodeLink{Name: d.ID, Access: netsim.Gbps, Latency: 250 * time.Microsecond})
	}
}

// Open opens a coordinator replica of the deployment — the assembly
// the daemon boots — and serves it at host; the caller Starts it.
func (w *World) Open(host string, cfg core.ReplicaConfig) (*core.Replica, error) {
	return w.open(host, cfg, w.Clock, w.Hosts)
}

// open is Open on clock, reaching each agent at the address it
// registered through wire.
func (w *World) open(host string, cfg core.ReplicaConfig, clock simclock.Clock, wire http.RoundTripper) (*core.Replica, error) {
	rep, err := core.OpenReplica(cfg, clock, w.Trace)
	if err != nil {
		return nil, err
	}
	agents := &http.Client{Transport: wire}
	w.Hosts.Serve(host, rep.Coordinator().Handler(func(addr string) core.AgentHandle {
		return &api.AgentClient{BaseURL: addr, HTTPClient: agents}
	}))
	return rep, nil
}

// Boot starts a machine's agent process, as the daemon starts when the
// machine powers on, and joins it through the first coordinator
// address that accepts it (see boot).
func (w *World) Boot(cfg agent.Config, gpus []gpu.Spec, coords ...string) (*agent.Agent, error) {
	ag := w.boot(cfg, w.Clock, gpus, nil, w.Hosts, coords)
	return ag, join(ag)
}

// boot starts an agent process on clock whose checkpoint path is cut
// while severed reports true (nil: never). It answers at its machine ID
// and holds an endpoint per coordinator address, as with cmd/agent
// -coordinator a,b, each reached through wire. The caller joins it.
func (w *World) boot(cfg agent.Config, clock simclock.Clock, gpus []gpu.Spec, severed func() bool, wire http.RoundTripper, coords []string) *agent.Agent {
	ag := agent.New(cfg, clock, gpus, ckptPath{w: w, node: cfg.MachineID, severed: severed}, w.Trace)
	w.Hosts.Serve(cfg.MachineID, ag.Handler())
	client := &http.Client{Transport: wire}
	eps := make([]agent.Endpoint, len(coords))
	for i, addr := range coords {
		eps[i] = agent.Endpoint{ID: addr, Link: &api.CoordinatorClient{BaseURL: "http://" + addr, HTTPClient: client}}
	}
	ag.SetEndpoints(eps)
	return ag
}

// join registers a booted agent through the first of its endpoints
// that accepts it (agent.JoinAny, as the daemon starts), advertising
// its machine ID as its address and 1 TiB of checkpoint storage.
func join(ag *agent.Agent) error {
	_, err := ag.JoinAny("inproc://"+ag.MachineID(), 1<<40)
	return err
}

// ckptPath is every simulated agent's path to World.Ckpts. A data-plane
// partition (severed) cuts its saves and prunes, exactly as the node's
// transfer connections would fail; the agent must absorb the error, and
// the workload keeps running on its last durable generation. With a LAN
// attached, the chain a launch resumes from crosses it from the store's
// machine to the node as a migration flow that stays open until its
// bytes arrive, so the restores of one event share links.
type ckptPath struct {
	w    *World
	node string
	// severed reports whether the node's data plane is cut (nil: never).
	severed func() bool
}

var errDataPlaneSevered = errors.New("sim: checkpoint data plane severed")

func (p ckptPath) cut() bool { return p.severed != nil && p.severed() }

func (p ckptPath) Save(ck checkpoint.Checkpoint) error {
	if p.cut() {
		return errDataPlaneSevered
	}
	return p.w.Ckpts.Save(ck)
}

func (p ckptPath) Prune(jobID string) (int64, error) {
	if p.cut() {
		return 0, errDataPlaneSevered
	}
	return p.w.Ckpts.Prune(jobID)
}

func (p ckptPath) RestoreChain(jobID string) ([]checkpoint.Checkpoint, error) {
	return p.w.Ckpts.RestoreChain(jobID)
}

// Fetch charges the chain's bytes to the LAN, when there is one, and
// returns the flow's duration.
func (p ckptPath) Fetch(chain []checkpoint.Checkpoint) time.Duration {
	net := p.w.Net
	if net == nil {
		return 0
	}
	var bytes int64
	for _, ck := range chain {
		bytes += ck.Bytes
	}
	start := p.w.Clock.Now()
	f, err := net.StartFlow(lanStorage, p.node, bytes, netsim.TrafficMigration, start)
	if err != nil {
		return 0
	}
	d := f.Duration()
	p.w.Clock.AfterFunc(d, func() { _ = net.FinishFlow(f, start.Add(d)) })
	return d
}
