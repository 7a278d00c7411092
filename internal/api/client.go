package api

import (
	"bytes"
	"net/http"
	"net/url"
	"strings"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/obs"
)

// The typed HTTP clients, one per peer: CoordinatorClient for whatever
// talks to a coordinator, AgentClient for whatever talks to an agent.
// They sit beside the wire types rather than in the server packages, so
// a daemon links only the side it speaks to.

// CoordinatorClient talks to a coordinator over HTTP. It serves two
// callers: user tooling (submit, status, nodes) and agent daemons, for
// which it is the agent.Link: register, heartbeat, job report and
// departure, each request carrying the credential the agent put in it.
type CoordinatorClient struct {
	// BaseURL is the coordinator's address.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient when nil.
	HTTPClient *http.Client
}

// NewCoordinatorClient creates a coordinator client with a 10 s timeout.
func NewCoordinatorClient(baseURL string) *CoordinatorClient {
	return &CoordinatorClient{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 10 * time.Second}}
}

// Register joins the platform.
func (c *CoordinatorClient) Register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/register", req, &resp)
	return resp, err
}

// Heartbeat sends one status update.
func (c *CoordinatorClient) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/heartbeat", req, &resp)
	return resp, err
}

// JobUpdate reports a job's terminal state.
func (c *CoordinatorClient) JobUpdate(req JobUpdateRequest) error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/jobupdate", req, nil)
}

// Depart announces a voluntary departure.
func (c *CoordinatorClient) Depart(req DepartRequest) error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/depart", req, nil)
}

// IngestAggregated forwards one aggregator flush window in the compact
// binary batch format. It implements aggregator.Upstream, so a
// rack-scoped aggregator daemon can point straight at a coordinator.
func (c *CoordinatorClient) IngestAggregated(batch AggregatedBeat) (AggregatedBeatResponse, error) {
	var out AggregatedBeatResponse
	raw, err := EncodeAggregatedBeat(batch)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/aggregated", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return out, Do(c.HTTPClient, req, &out)
}

// SubmitJob submits a user job.
func (c *CoordinatorClient) SubmitJob(req SubmitJobRequest) (string, error) {
	var resp SubmitJobResponse
	if err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/jobs", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// JobStatus fetches one job's state.
func (c *CoordinatorClient) JobStatus(jobID string) (JobStatus, error) {
	var st JobStatus
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/jobs/"+jobID, &st)
	return st, err
}

// Jobs lists all jobs' statuses, newest first.
func (c *CoordinatorClient) Jobs() ([]JobStatus, error) {
	var jobs []JobStatus
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/jobs", &jobs)
	return jobs, err
}

// KillJob terminates a job platform-wide.
func (c *CoordinatorClient) KillJob(jobID string) error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/jobs/"+jobID+"/kill", nil, nil)
}

// Nodes lists registered nodes.
func (c *CoordinatorClient) Nodes() ([]NodeSummary, error) {
	var nodes []NodeSummary
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/nodes", &nodes)
	return nodes, err
}

// NodeSamples fetches one node's retained telemetry points of one
// metric, oldest first; since > 0 keeps only that most recent window.
func (c *CoordinatorClient) NodeSamples(nodeID, metric string, since time.Duration) ([]db.Sample, error) {
	q := url.Values{"metric": {metric}, "since": {since.String()}}
	var out []db.Sample
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/nodes/"+url.PathEscape(nodeID)+"/samples?"+q.Encode(), &out)
	return out, err
}

// NodeHealths lists every node's health standing and recent events.
func (c *CoordinatorClient) NodeHealths() ([]NodeHealthSummary, error) {
	var out []NodeHealthSummary
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/health/nodes", &out)
	return out, err
}

// MetricsText fetches the coordinator's metrics in the Prometheus text
// exposition format.
func (c *CoordinatorClient) MetricsText() (string, error) {
	var text strings.Builder
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/metrics", &text)
	return text.String(), err
}

// TraceExport fetches the coordinator's flight-recorder contents.
func (c *CoordinatorClient) TraceExport() (obs.Export, error) {
	var exp obs.Export
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/trace", &exp)
	return exp, err
}

// AgentClient drives a remote agent over HTTP. It implements the
// coordinator's AgentHandle contract plus the provider-local controls
// used by gpuctl.
type AgentClient struct {
	// BaseURL is the agent's address, e.g. "http://10.0.0.5:7070".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient when nil.
	HTTPClient *http.Client
}

// NewAgentClient creates an agent client with a 10 s timeout.
func NewAgentClient(baseURL string) *AgentClient {
	return &AgentClient{BaseURL: baseURL, HTTPClient: &http.Client{Timeout: 10 * time.Second}}
}

// Launch implements the coordinator-side handle.
func (c *AgentClient) Launch(req LaunchRequest) (LaunchResponse, error) {
	var resp LaunchResponse
	err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/launch", req, &resp)
	return resp, err
}

// Kill implements the coordinator-side handle. The request carries the
// sending leader's epoch; the agent enforces the fence.
func (c *AgentClient) Kill(req KillRequest) error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/kill", req, nil)
}

// Checkpoint implements the coordinator-side handle. The request
// carries the sending leader's epoch; the agent enforces the fence.
func (c *AgentClient) Checkpoint(req CheckpointRequest) (CheckpointResponse, error) {
	var resp CheckpointResponse
	err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/checkpoint", req, &resp)
	return resp, err
}

// KillSwitch triggers the provider's emergency control.
func (c *AgentClient) KillSwitch() (KillSwitchResponse, error) {
	var resp KillSwitchResponse
	err := PostJSON(c.HTTPClient, c.BaseURL+"/v1/killswitch", nil, &resp)
	return resp, err
}

// Pause stops new allocations on the node.
func (c *AgentClient) Pause() error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/pause", nil, nil)
}

// Resume re-enables allocations.
func (c *AgentClient) Resume() error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/resume", nil, nil)
}

// Depart asks the agent to leave the platform.
func (c *AgentClient) Depart(reason DepartReason, grace time.Duration) error {
	return PostJSON(c.HTTPClient, c.BaseURL+"/v1/depart", DepartRequest{
		Reason: reason, GraceSeconds: int(grace / time.Second),
	}, nil)
}

// Status fetches the agent's self-report.
func (c *AgentClient) Status() (AgentStatus, error) {
	var st AgentStatus
	err := GetJSON(c.HTTPClient, c.BaseURL+"/v1/status", &st)
	return st, err
}
