package core

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/obs"
)

// Client talks to a coordinator over HTTP. It serves two callers:
// user tooling (submit, status, nodes) and agent daemons, for which it
// is the agent.Link: register, heartbeat, job report and departure,
// each request carrying the credential the agent put in it.
type Client struct {
	// BaseURL is the coordinator's address.
	BaseURL string
	// HTTPClient defaults to a 10 s timeout client.
	HTTPClient *http.Client
}

// NewClient creates a coordinator client.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
	}
}

// Register joins the platform.
func (c *Client) Register(req api.RegisterRequest) (api.RegisterResponse, error) {
	var resp api.RegisterResponse
	err := c.post("/v1/register", req, &resp)
	return resp, err
}

// Heartbeat sends one status update.
func (c *Client) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	var resp api.HeartbeatResponse
	err := c.post("/v1/heartbeat", req, &resp)
	return resp, err
}

// JobUpdate reports a job's terminal state.
func (c *Client) JobUpdate(req api.JobUpdateRequest) error {
	return c.post("/v1/jobupdate", req, nil)
}

// Depart announces a voluntary departure.
func (c *Client) Depart(req api.DepartRequest) error {
	return c.post("/v1/depart", req, nil)
}

// IngestAggregated forwards one aggregator flush window in the compact
// binary batch format. It implements aggregator.Upstream, so a
// rack-scoped aggregator daemon can point straight at a coordinator.
func (c *Client) IngestAggregated(batch api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	var out api.AggregatedBeatResponse
	raw, err := api.EncodeAggregatedBeat(batch)
	if err != nil {
		return out, err
	}
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/aggregated", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return out, api.Do(c.HTTPClient, req, &out)
}

// SubmitJob submits a user job.
func (c *Client) SubmitJob(req api.SubmitJobRequest) (string, error) {
	var resp api.SubmitJobResponse
	if err := c.post("/v1/jobs", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// JobStatus fetches one job's state.
func (c *Client) JobStatus(jobID string) (api.JobStatus, error) {
	var st api.JobStatus
	err := c.get("/v1/jobs/"+jobID, &st)
	return st, err
}

// Jobs lists all jobs' statuses, newest first.
func (c *Client) Jobs() ([]api.JobStatus, error) {
	var jobs []api.JobStatus
	err := c.get("/v1/jobs", &jobs)
	return jobs, err
}

// KillJob terminates a job platform-wide.
func (c *Client) KillJob(jobID string) error {
	return c.post("/v1/jobs/"+jobID+"/kill", nil, nil)
}

// Nodes lists registered nodes.
func (c *Client) Nodes() ([]api.NodeSummary, error) {
	var nodes []api.NodeSummary
	err := c.get("/v1/nodes", &nodes)
	return nodes, err
}

// NodeSamples fetches one node's retained telemetry points of one
// metric, oldest first; since > 0 keeps only that most recent window.
func (c *Client) NodeSamples(nodeID, metric string, since time.Duration) ([]db.Sample, error) {
	q := url.Values{"metric": {metric}, "since": {since.String()}}
	var out []db.Sample
	err := c.get("/v1/nodes/"+url.PathEscape(nodeID)+"/samples?"+q.Encode(), &out)
	return out, err
}

// NodeHealths lists every node's health standing and recent events.
func (c *Client) NodeHealths() ([]api.NodeHealthSummary, error) {
	var out []api.NodeHealthSummary
	err := c.get("/v1/health/nodes", &out)
	return out, err
}

// MetricsText fetches the coordinator's metrics in the Prometheus text
// exposition format.
func (c *Client) MetricsText() (string, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/metrics")
	if err != nil {
		return "", fmt.Errorf("core: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", api.ReadError(resp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("core: reading metrics: %w", err)
	}
	return string(raw), nil
}

// TraceExport fetches the coordinator's flight-recorder contents.
func (c *Client) TraceExport() (obs.Export, error) {
	var exp obs.Export
	err := c.get("/v1/trace", &exp)
	return exp, err
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) post(path string, body, out any) error {
	return api.PostJSON(c.HTTPClient, c.BaseURL+path, body, out)
}

func (c *Client) get(path string, out any) error {
	return api.GetJSON(c.HTTPClient, c.BaseURL+path, out)
}
