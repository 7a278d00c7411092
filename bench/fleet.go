package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

// The fleet's devices: what the paper's campus mostly offers, and what
// cmd/agent advertises by default (RTX 3090: 24 GiB, capability 8.6).
const (
	gpusPerNode  = 2
	gpuModel     = "RTX 3090"
	gpuMemMiB    = 24 * 1024
	gpuCapMajor  = 8
	gpuCapMinor  = 6
	nodeKernel   = "5.15"
	nodeStorage  = 100 << 30
	fleetURLPath = "/n/"
)

// fleet is the provider side of the benchmark: thousands of fake agents
// behind one HTTP server (SNIPPETS 1-2: an injectable GPU layer is what
// lets a whole campus fit on one host). Each node keeps a device table
// and answers launch, kill and checkpoint with cmd/agent's semantics;
// nothing here computes, so the daemons under test stay the only real
// cost on the host.
type fleet struct {
	base  string // http://127.0.0.1:P
	nodes []*node
	byID  map[string]*node
	srv   *http.Server

	// onLaunch tells the workload a job started on a node (first launch
	// only, not an idempotent re-ack). Called without any fleet lock.
	onLaunch func(n *node, jobID string, at time.Time)

	mu sync.Mutex
	// live maps a job to the nodes it is currently running on; more than
	// one entry is a duplicate placement.
	live map[string][]*node

	launches   atomic.Int64 // launch requests that started a job
	reacks     atomic.Int64 // same-node duplicates, acknowledged again
	refusals   atomic.Int64 // full, departed or fenced
	duplicates atomic.Int64 // started while live on another node
}

// node is one fake provider.
type node struct {
	id    string
	index int
	addr  string // what the coordinator dials: base + /n/<id>

	mu       sync.Mutex
	token    string
	beatSeq  uint64
	epoch    uint64 // highest leader epoch seen (the agent's fence)
	departed bool
	devices  [gpusPerNode]string // job on each device, "" when free
	util     [gpusPerNode]float64
}

// newFleet starts the fleet server with n nodes. rng seeds the telemetry
// each node reports; it is only read here.
func newFleet(n int, rng *rand.Rand) (*fleet, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		base: "http://" + l.Addr().String(),
		byID: make(map[string]*node, n),
		live: make(map[string][]*node),
	}
	for i := 0; i < n; i++ {
		nd := &node{id: fmt.Sprintf("node-%04d", i), index: i}
		nd.addr = f.base + fleetURLPath + nd.id
		for d := range nd.util {
			nd.util[d] = rng.Float64()
		}
		f.nodes = append(f.nodes, nd)
		f.byID[nd.id] = nd
	}
	f.srv = &http.Server{Handler: http.HandlerFunc(f.serve)}
	go func() { _ = f.srv.Serve(l) }()
	return f, nil
}

func (f *fleet) close() { _ = f.srv.Close() }

// serve routes /n/<id>/v1/<verb>.
func (f *fleet) serve(w http.ResponseWriter, r *http.Request) {
	rest, ok := strings.CutPrefix(r.URL.Path, fleetURLPath)
	id, verb, ok2 := strings.Cut(rest, "/")
	n := f.byID[id]
	if !ok || !ok2 || n == nil || r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	switch verb {
	case "v1/launch":
		f.launch(n, w, r)
	case "v1/kill":
		f.kill(n, w, r)
	case "v1/checkpoint":
		// Interactive sessions carry no checkpointable state; the real
		// agent answers the same way.
		reply(w, http.StatusConflict, api.Error{Code: http.StatusConflict,
			Message: "agent: job has no checkpointable state"})
	default:
		http.NotFound(w, r)
	}
}

func reply(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func refuse(w http.ResponseWriter, msg string) {
	reply(w, http.StatusConflict, api.Error{Code: http.StatusConflict, Message: msg})
}

// fence applies the agent's leader-epoch rule. Caller holds n.mu.
func (n *node) fence(epoch uint64) bool {
	if epoch == 0 {
		return true
	}
	if epoch < n.epoch {
		return false
	}
	n.epoch = epoch
	return true
}

func (f *fleet) launch(n *node, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req api.LaunchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reply(w, http.StatusBadRequest, api.Error{Code: http.StatusBadRequest, Message: err.Error()})
		return
	}
	n.mu.Lock()
	switch {
	case !n.fence(req.LeaderEpoch):
		n.mu.Unlock()
		f.refusals.Add(1)
		refuse(w, "agent: request from stale leader epoch")
		return
	case n.departed:
		n.mu.Unlock()
		f.refusals.Add(1)
		refuse(w, "agent: node has departed")
		return
	}
	free := -1
	for d, job := range n.devices {
		if job == req.JobID {
			// Same job, same node: a retried or raced launch. Acknowledge
			// the existing placement, as the real agent does.
			n.mu.Unlock()
			f.reacks.Add(1)
			reply(w, http.StatusOK, api.LaunchResponse{ContainerID: "ctr-" + req.JobID, DeviceID: deviceID(d)})
			return
		}
		if job == "" && free < 0 {
			free = d
		}
	}
	fits := req.GPUMemMiB <= gpuMemMiB &&
		gpu.ComputeCapability{Major: gpuCapMajor, Minor: gpuCapMinor}.AtLeast(api.CapabilityOf(req.CapabilityMajor, req.CapabilityMinor))
	if free < 0 || !fits {
		n.mu.Unlock()
		f.refusals.Add(1)
		refuse(w, "agent: no free device satisfies the request")
		return
	}
	n.devices[free] = req.JobID
	n.mu.Unlock()

	f.mu.Lock()
	if len(f.live[req.JobID]) > 0 {
		f.duplicates.Add(1)
	}
	f.live[req.JobID] = append(f.live[req.JobID], n)
	f.mu.Unlock()
	f.launches.Add(1)
	if f.onLaunch != nil {
		f.onLaunch(n, req.JobID, start)
	}
	reply(w, http.StatusOK, api.LaunchResponse{ContainerID: "ctr-" + req.JobID, DeviceID: deviceID(free)})
}

func (f *fleet) kill(n *node, w http.ResponseWriter, r *http.Request) {
	var req api.KillRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		reply(w, http.StatusBadRequest, api.Error{Code: http.StatusBadRequest, Message: err.Error()})
		return
	}
	n.mu.Lock()
	fenced := !n.fence(req.LeaderEpoch)
	n.mu.Unlock()
	if fenced {
		refuse(w, "agent: request from stale leader epoch")
		return
	}
	if !f.stop(n, req.JobID) {
		reply(w, http.StatusNotFound, api.Error{Code: http.StatusNotFound, Message: "agent: unknown job " + req.JobID})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// stop ends jobID on n (kill, completion or departure) and reports
// whether it was running there.
func (f *fleet) stop(n *node, jobID string) bool {
	n.mu.Lock()
	found := false
	for d, job := range n.devices {
		if job == jobID {
			n.devices[d] = ""
			found = true
		}
	}
	n.mu.Unlock()
	if !found {
		return false
	}
	f.mu.Lock()
	hosts := f.live[jobID]
	for i, h := range hosts {
		if h == n {
			hosts = append(hosts[:i], hosts[i+1:]...)
			break
		}
	}
	if len(hosts) == 0 {
		delete(f.live, jobID)
	} else {
		f.live[jobID] = hosts
	}
	f.mu.Unlock()
	return true
}

// hosts returns the nodes jobID is live on right now.
func (f *fleet) hosts(jobID string) []*node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*node(nil), f.live[jobID]...)
}

func deviceID(d int) string { return fmt.Sprintf("gpu%d", d) }

// running lists the jobs on the node's devices. Caller holds n.mu.
func (n *node) running() []string {
	var jobs []string
	for _, job := range n.devices {
		if job != "" {
			jobs = append(jobs, job)
		}
	}
	return jobs
}

// registerRequest is what the node's agent would send on joining.
func (n *node) registerRequest() api.RegisterRequest {
	n.mu.Lock()
	defer n.mu.Unlock()
	gpus := make([]db.GPUInfo, gpusPerNode)
	for d := range gpus {
		gpus[d] = db.GPUInfo{
			DeviceID: deviceID(d), Model: gpuModel, Arch: "ampere", MemoryMiB: gpuMemMiB,
			CapabilityMajor: gpuCapMajor, CapabilityMinor: gpuCapMinor,
			Allocated: n.devices[d] != "",
		}
	}
	return api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: n.epoch},
		MachineID: n.id, Addr: n.addr, GPUs: gpus, Kernel: nodeKernel, StorageBytes: nodeStorage,
	}
}

// registered installs the credentials of a successful registration: a
// new session, so the beat sequence restarts like a restarted agent's.
func (n *node) registered(resp api.RegisterResponse) {
	n.mu.Lock()
	n.token = resp.Token
	n.beatSeq = 0
	n.departed = false
	if resp.LeaderEpoch > n.epoch {
		n.epoch = resp.LeaderEpoch
	}
	n.mu.Unlock()
}

// beat builds the node's next heartbeat. Idle beats carry the token and
// a fresh sequence number only; telemetry beats add one reading per
// device with the truthful allocation flag, which is what cmd/agent
// sends on every beat by default. RunningJobs is always truthful.
func (n *node) beat(telemetry bool) api.HeartbeatRequest {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.beatSeq++
	req := api.HeartbeatRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: n.epoch},
		MachineID: n.id, Token: n.token, BeatSeq: n.beatSeq,
		RunningJobs: n.running(),
	}
	if telemetry {
		req.Telemetry = make([]gpu.Telemetry, gpusPerNode)
		for d := range req.Telemetry {
			busy := n.devices[d] != ""
			t := gpu.Telemetry{DeviceID: deviceID(d), Model: gpuModel, TotalMemMiB: gpuMemMiB,
				TemperatureC: 40 + 30*n.util[d], PowerW: 100 + 200*n.util[d], Allocated: busy}
			if busy {
				t.Utilization, t.UsedMemMiB = n.util[d], int64(float64(gpuMemMiB)*n.util[d])
			}
			req.Telemetry[d] = t
		}
	}
	return req
}

// observe records the leader epoch of a coordinator reply.
func (n *node) observe(epoch uint64) {
	n.mu.Lock()
	if epoch > n.epoch {
		n.epoch = epoch
	}
	n.mu.Unlock()
}

// depart is the provider leaving: workloads stop at once, later launches
// are refused, and the returned request announces it to the coordinator.
func (f *fleet) depart(n *node) (api.DepartRequest, []string) {
	n.mu.Lock()
	n.departed = true
	jobs := n.running()
	req := api.DepartRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: n.epoch},
		MachineID: n.id, Token: n.token, Reason: api.DepartScheduled,
	}
	n.mu.Unlock()
	for _, job := range jobs {
		f.stop(n, job)
	}
	return req, jobs
}
