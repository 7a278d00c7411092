// Package api defines the wire types of GPUnion's REST protocol: the
// messages exchanged between provider agents, the central coordinator,
// and user clients. All bodies are JSON.
//
// Endpoint map (coordinator):
//
//	POST /v1/register        RegisterRequest  → RegisterResponse
//	POST /v1/heartbeat       HeartbeatRequest → HeartbeatResponse
//	POST /v1/depart          DepartRequest    → empty
//	POST /v1/jobs            SubmitJobRequest → SubmitJobResponse
//	GET  /v1/jobs/{id}       → JobStatus
//	GET  /v1/nodes           → []NodeSummary
//	GET  /v1/metrics         → Prometheus text
//
// Endpoint map (agent):
//
//	POST /v1/launch          LaunchRequest → LaunchResponse
//	POST /v1/kill            KillRequest   → empty
//	POST /v1/checkpoint      CheckpointRequest → CheckpointResponse
//	POST /v1/killswitch      → KillSwitchResponse   (provider-local)
//	POST /v1/pause           → empty                (provider-local)
//	POST /v1/resume          → empty                (provider-local)
//	POST /v1/depart          DepartRequest → empty  (provider-local)
//	GET  /v1/status          → AgentStatus
//	GET  /v1/metrics         → Prometheus text
package api

import (
	"fmt"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/workload"
)

// Error is the JSON error envelope returned with non-2xx statuses.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
	// NotLeader is set when the error is an ErrNotLeader, so the typed
	// reply (leader hint, epoch) survives the HTTP hop and a client can
	// redirect instead of parsing Message.
	NotLeader *ErrNotLeader `json:"not_leader,omitempty"`
}

// Error implements the error interface.
func (e Error) Error() string { return e.Message }

// Protocol versions. Version 1 is the pre-replication wire format
// (no envelope fields); version 2 adds the Envelope — protocol
// version negotiation on Register and leader-epoch fencing on every
// request. A zero ProtocolVersion on the wire is read as version 1:
// the fields are additive and omitted by old senders.
const (
	// ProtocolV1 is the legacy, pre-envelope protocol.
	ProtocolV1 = 1
	// ProtocolVersion is the current protocol spoken by this build.
	ProtocolVersion = 2
	// MinProtocolVersion is the oldest version the coordinator accepts.
	MinProtocolVersion = ProtocolV1
)

// Envelope carries the protocol fields shared by every request: the
// sender's protocol version and the highest coordinator leader epoch
// it has observed. Embedded (and therefore JSON-inlined) in all
// request types. Both fields are zero for legacy senders.
type Envelope struct {
	// ProtocolVersion is the wire version the sender speaks (zero =
	// ProtocolV1, the pre-envelope format).
	ProtocolVersion int `json:"protocol_version,omitempty"`
	// LeaderEpoch is, on agent→coordinator requests, the highest leader
	// epoch the sender has observed (the coordinator steps down if it
	// sees a higher epoch than its own); on coordinator→agent requests
	// (launch, kill), the sending leader's epoch — the fencing token
	// agents use to reject a deposed leader's writes. Zero means "no
	// epoch": single-coordinator deployments and legacy senders.
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
}

// ErrNotLeader is the typed reply a coordinator returns for mutating
// requests it must not serve: it is a standby, it lost its lease, or
// the request's epoch proves a newer leader exists. Agents rotate to
// their next endpoint and retry.
type ErrNotLeader struct {
	// LeaderHint is the replica ID of the believed current leader, empty
	// when unknown. It is for people reading the reply: an agent's
	// endpoints are addresses, so agents do not follow it.
	LeaderHint string `json:"leader_hint,omitempty"`
	// Epoch is the highest leader epoch the replying replica knows of.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Error implements the error interface.
func (e ErrNotLeader) Error() string {
	if e.LeaderHint == "" {
		return "api: not the leader"
	}
	return "api: not the leader (try " + e.LeaderHint + ")"
}

// ErrVersionMismatch is the typed Register rejection for a protocol
// version outside [MinProtocolVersion, ProtocolVersion].
type ErrVersionMismatch struct {
	// Requested is the version the agent asked for.
	Requested int `json:"requested"`
	// Min and Max bound what the coordinator speaks.
	Min int `json:"min"`
	Max int `json:"max"`
}

// Error implements the error interface.
func (e ErrVersionMismatch) Error() string {
	return fmt.Sprintf("api: protocol version %d unsupported (coordinator speaks %d..%d)",
		e.Requested, e.Min, e.Max)
}

// NegotiateVersion resolves the version a connection will speak from
// the version a Register requested (zero = ProtocolV1). ok is false
// when no common version exists.
func NegotiateVersion(requested int) (v int, ok bool) {
	if requested == 0 {
		requested = ProtocolV1
	}
	if requested < MinProtocolVersion || requested > ProtocolVersion {
		return 0, false
	}
	return requested, true
}

// RegisterRequest is sent by an agent joining the platform.
type RegisterRequest struct {
	Envelope
	// MachineID is the agent-generated unique identifier.
	MachineID string `json:"machine_id"`
	// Addr is the agent's base URL for coordinator-initiated calls.
	Addr string `json:"addr"`
	// GPUs inventories the node's devices.
	GPUs []db.GPUInfo `json:"gpus"`
	// Kernel is the host kernel version (CRIU-ablation relevance).
	Kernel string `json:"kernel"`
	// StorageBytes is scratch capacity offered to the platform.
	StorageBytes int64 `json:"storage_bytes"`
}

// RegisterResponse returns the credentials the agent uses afterwards.
type RegisterResponse struct {
	// Token authenticates subsequent agent calls.
	Token string `json:"token"`
	// HeartbeatInterval is how often the agent must report.
	HeartbeatInterval time.Duration `json:"heartbeat_interval"`
	// ProtocolVersion is the negotiated wire version (zero = legacy
	// coordinator, treat as ProtocolV1).
	ProtocolVersion int `json:"protocol_version,omitempty"`
	// LeaderEpoch is the registering coordinator's current leader epoch
	// (zero in single-coordinator deployments). Agents remember the
	// highest epoch seen and reject coordinator-initiated writes
	// carrying an older one.
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
}

// HeartbeatRequest carries the periodic status update (§3.2: "periodic
// status updates from provider agents").
type HeartbeatRequest struct {
	Envelope
	MachineID string `json:"machine_id"`
	Token     string `json:"token"`
	// Telemetry is the current per-device reading.
	Telemetry []gpu.Telemetry `json:"telemetry"`
	// RunningJobs lists job IDs currently executing on the node.
	RunningJobs []string `json:"running_jobs"`
	// Paused reports whether the provider has paused new allocations.
	Paused bool `json:"paused"`
	// BeatSeq is the agent's monotonically increasing beat counter,
	// starting at one. The coordinator drops a beat whose sequence it
	// has already processed, making heartbeat ingress idempotent under
	// duplicate delivery (retried requests, replayed packets), and
	// refuses a beat without one (zero).
	BeatSeq uint64 `json:"beat_seq,omitempty"`
	// HealthEvents carries the gray-failure observations collected on
	// the node since its last beat (XID errors, thermal/power
	// throttling, throughput slowdowns). The slice is bounded: agents
	// send and coordinators accept at most MaxHealthEventsPerBeat per
	// beat, newest first beyond the cap. The BeatSeq dedup guard covers
	// these too — a replayed beat never double-folds its events.
	HealthEvents []gpu.HealthEvent `json:"health_events,omitempty"`
}

// MaxHealthEventsPerBeat bounds HeartbeatRequest.HealthEvents on both
// sides of the wire, keeping a misbehaving (or very sick) node from
// flooding heartbeat ingress.
const MaxHealthEventsPerBeat = 32

// HeartbeatResponse acknowledges a heartbeat.
type HeartbeatResponse struct {
	// Acknowledged is true when the coordinator accepted the update.
	Acknowledged bool `json:"acknowledged"`
	// Reregister asks the agent to register again (unknown node, e.g.
	// after a coordinator restart).
	Reregister bool `json:"reregister,omitempty"`
	// LeaderEpoch is the acking coordinator's current leader epoch, so
	// agents track leadership changes from the regular heartbeat flow.
	LeaderEpoch uint64 `json:"leader_epoch,omitempty"`
}

// DepartReason distinguishes the §4 interruption classes.
type DepartReason string

// Departure reasons.
const (
	// DepartScheduled is a graceful, provider-initiated shutdown with
	// time for final checkpoints.
	DepartScheduled DepartReason = "scheduled"
	// DepartEmergency is an immediate disconnect (power cut, network
	// pull); detected by heartbeat loss, not announced.
	DepartEmergency DepartReason = "emergency"
	// DepartTemporary is a pause with intent to return.
	DepartTemporary DepartReason = "temporary"
)

// DepartRequest announces a voluntary departure.
type DepartRequest struct {
	Envelope
	MachineID string       `json:"machine_id"`
	Token     string       `json:"token"`
	Reason    DepartReason `json:"reason"`
	// GraceSeconds is how long the provider allows for checkpointing
	// before workloads are terminated (scheduled departures).
	GraceSeconds int `json:"grace_seconds,omitempty"`
}

// SubmitJobRequest is a user's job submission.
type SubmitJobRequest struct {
	Envelope
	User string `json:"user"`
	// Kind is "batch" or "interactive".
	Kind string `json:"kind"`
	// ImageName is the container image to run.
	ImageName string `json:"image_name"`
	// Entrypoint for batch jobs.
	Entrypoint []string `json:"entrypoint,omitempty"`
	// Priority orders the pending queue (higher first).
	Priority int `json:"priority"`
	// GPUMemMiB and MinCapability* constrain placement.
	GPUMemMiB       int64 `json:"gpu_mem_mib"`
	CapabilityMajor int   `json:"capability_major"`
	CapabilityMinor int   `json:"capability_minor"`
	// CheckpointIntervalSec enables periodic ALC checkpoints.
	CheckpointIntervalSec int `json:"checkpoint_interval_sec,omitempty"`
	// StoragePrefs is the ordered list of storage nodes for checkpoints.
	// It is stored and forwarded on launch, but no shipped agent acts on
	// it: every checkpoint goes to the platform store.
	StoragePrefs []string `json:"storage_prefs,omitempty"`
	// Training describes the batch training workload (the stand-in for
	// the user's training script).
	Training *workload.TrainingSpec `json:"training,omitempty"`
	// SessionSeconds is the expected duration of an interactive session.
	SessionSeconds int `json:"session_seconds,omitempty"`
}

// SubmitJobResponse returns the assigned job ID.
type SubmitJobResponse struct {
	JobID string `json:"job_id"`
}

// JobStatus reports a job's platform-level state.
type JobStatus struct {
	JobID      string      `json:"job_id"`
	State      db.JobState `json:"state"`
	NodeID     string      `json:"node_id,omitempty"`
	DeviceID   string      `json:"device_id,omitempty"`
	Migrations int         `json:"migrations"`
	Submitted  time.Time   `json:"submitted"`
	Started    time.Time   `json:"started,omitempty"`
	Finished   time.Time   `json:"finished,omitempty"`
}

// NodeSummary is one row of the coordinator's node listing.
type NodeSummary struct {
	ID            string        `json:"id"`
	Status        db.NodeStatus `json:"status"`
	GPUs          []db.GPUInfo  `json:"gpus"`
	LastHeartbeat time.Time     `json:"last_heartbeat"`
	Departures    int           `json:"departures"`
}

// NodeHealthSummary is one row of the coordinator's health listing: the
// node's folded gray-failure score plus the latest events behind it.
type NodeHealthSummary struct {
	NodeID string        `json:"node_id"`
	Status db.NodeStatus `json:"status"`
	// Score is the folded health score in (0, 1]; 1 is fully healthy.
	Score float64 `json:"score"`
	// UpdatedAt is when the score last moved; zero means no health
	// event has ever been folded for this node.
	UpdatedAt time.Time `json:"updated_at,omitempty"`
	// Unhealthy reports Score below the drain threshold: the node is
	// excluded from placement and its jobs are being moved off.
	Unhealthy bool `json:"unhealthy,omitempty"`
	// RecentEvents is a bounded ring of the latest ingested events.
	RecentEvents []gpu.HealthEvent `json:"recent_events,omitempty"`
}

// LaunchRequest asks an agent to start a job in a container.
type LaunchRequest struct {
	Envelope
	JobID     string `json:"job_id"`
	ImageName string `json:"image_name"`
	// Kind is "batch" or "interactive".
	Kind       string   `json:"kind"`
	Entrypoint []string `json:"entrypoint,omitempty"`
	// GPUMemMiB / Capability* select a device on the node.
	GPUMemMiB       int64 `json:"gpu_mem_mib"`
	CapabilityMajor int   `json:"capability_major"`
	CapabilityMinor int   `json:"capability_minor"`
	// CheckpointIntervalSec enables periodic checkpoints on the agent.
	CheckpointIntervalSec int `json:"checkpoint_interval_sec,omitempty"`
	// RestoreFromSeq, when non-zero, instructs the agent to restore the
	// job from the given checkpoint sequence before starting.
	RestoreFromSeq int `json:"restore_from_seq,omitempty"`
	// RestoreStep is the application progress to resume from.
	RestoreStep int64 `json:"restore_step,omitempty"`
	// Training describes the batch training workload.
	Training *workload.TrainingSpec `json:"training,omitempty"`
	// SessionSeconds is the expected duration of an interactive session.
	SessionSeconds int `json:"session_seconds,omitempty"`
	// StoragePrefs is the user's ordered checkpoint-placement list
	// (§3.5: users pick where their state is kept). No shipped agent acts
	// on it: every checkpoint goes to the platform store.
	StoragePrefs []string `json:"storage_prefs,omitempty"`
}

// LaunchResponse confirms a launch.
type LaunchResponse struct {
	ContainerID string `json:"container_id"`
	DeviceID    string `json:"device_id"`
}

// KillRequest terminates a job on an agent.
type KillRequest struct {
	Envelope
	JobID string `json:"job_id"`
}

// CheckpointRequest asks the agent to checkpoint a job now.
type CheckpointRequest struct {
	Envelope
	JobID string `json:"job_id"`
	// Incremental requests a delta checkpoint.
	Incremental bool `json:"incremental"`
}

// CheckpointResponse reports the captured snapshot.
type CheckpointResponse struct {
	Seq   int   `json:"seq"`
	Bytes int64 `json:"bytes"`
	Step  int64 `json:"step"`
}

// JobUpdateRequest is the agent's report of a job state change
// (completion, failure) to the coordinator.
type JobUpdateRequest struct {
	Envelope
	MachineID string      `json:"machine_id"`
	Token     string      `json:"token"`
	JobID     string      `json:"job_id"`
	State     db.JobState `json:"state"`
	Step      int64       `json:"step"`
}

// KillSwitchResponse reports what the provider's kill-switch terminated.
type KillSwitchResponse struct {
	KilledJobs []string `json:"killed_jobs"`
}

// AgentStatus is the agent's self-report.
type AgentStatus struct {
	MachineID   string          `json:"machine_id"`
	Paused      bool            `json:"paused"`
	Departed    bool            `json:"departed"`
	RunningJobs []string        `json:"running_jobs"`
	Telemetry   []gpu.Telemetry `json:"telemetry"`
}

// CapabilityOf converts the wire fields to the gpu type.
func CapabilityOf(major, minor int) gpu.ComputeCapability {
	return gpu.ComputeCapability{Major: major, Minor: minor}
}
