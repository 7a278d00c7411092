package agent

import (
	"errors"
	"net/http"
	"time"

	"gpunion/internal/api"
)

// Handler returns the agent's REST API (§3.4: "The agent exposes REST
// APIs for resource advertisement, workload lifecycle management, and
// emergency controls"). Coordinator-facing endpoints (launch, kill,
// checkpoint) and provider-local controls (killswitch, pause, resume,
// depart) share the mux; in a real deployment the local controls would
// bind to loopback only.
func (a *Agent) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/launch", func(w http.ResponseWriter, r *http.Request) {
		var req api.LaunchRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := a.Launch(req)
		if err != nil {
			api.WriteError(w, http.StatusConflict, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/kill", func(w http.ResponseWriter, r *http.Request) {
		var req api.KillRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		if err := a.KillJob(req); err != nil {
			status := http.StatusNotFound
			if errors.Is(err, ErrStaleLeader) {
				status = http.StatusConflict
			}
			api.WriteError(w, status, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		var req api.CheckpointRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := a.Checkpoint(req)
		if err != nil {
			api.WriteError(w, http.StatusConflict, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/killswitch", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, api.KillSwitchResponse{KilledJobs: a.KillSwitch()})
	})

	mux.HandleFunc("POST /v1/pause", func(w http.ResponseWriter, _ *http.Request) {
		a.Pause()
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/resume", func(w http.ResponseWriter, _ *http.Request) {
		a.Resume()
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("POST /v1/depart", func(w http.ResponseWriter, r *http.Request) {
		var req api.DepartRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		grace := time.Duration(req.GraceSeconds) * time.Second
		a.Depart(req.Reason, grace)
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, a.Status())
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Refresh the telemetry gauges in place on the agent's
		// persistent registry: counters registered elsewhere (launches,
		// future lifecycle totals) keep accumulating across scrapes —
		// a fresh per-scrape registry would zero them every time.
		reg := a.metrics
		for _, tel := range a.runtime.Inventory().Snapshot() {
			labels := map[string]string{"node": a.cfg.MachineID, "device": tel.DeviceID, "model": tel.Model}
			set := func(name, help string, v float64) {
				if g, err := reg.Gauge(name, help, labels); err == nil {
					g.Set(v)
				}
			}
			set("gpunion_gpu_utilization", "GPU compute utilization (0..1)", tel.Utilization)
			set("gpunion_gpu_memory_used_mib", "GPU memory in use", float64(tel.UsedMemMiB))
			set("gpunion_gpu_temperature_celsius", "GPU temperature", tel.TemperatureC)
			set("gpunion_gpu_power_watts", "GPU power draw", tel.PowerW)
		}
		if g, err := reg.Gauge("gpunion_agent_running_jobs", "Jobs running on this node", nil); err == nil {
			g.Set(float64(len(a.Status().RunningJobs)))
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WriteText(w)
	})

	return mux
}

// Client drives a remote agent over HTTP. It implements the
// coordinator's AgentHandle contract plus the provider-local controls
// used by gpuctl.
type Client struct {
	// BaseURL is the agent's address, e.g. "http://10.0.0.5:7070".
	BaseURL string
	// HTTPClient defaults to a client with a 10 s timeout.
	HTTPClient *http.Client
}

// NewClient creates a Client with sane timeouts.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 10 * time.Second},
	}
}

// Launch implements the coordinator-side handle.
func (c *Client) Launch(req api.LaunchRequest) (api.LaunchResponse, error) {
	var resp api.LaunchResponse
	err := c.post("/v1/launch", req, &resp)
	return resp, err
}

// Kill implements the coordinator-side handle. The request carries the
// sending leader's epoch; the agent enforces the fence.
func (c *Client) Kill(req api.KillRequest) error {
	return c.post("/v1/kill", req, nil)
}

// Checkpoint implements the coordinator-side handle. The request
// carries the sending leader's epoch; the agent enforces the fence.
func (c *Client) Checkpoint(req api.CheckpointRequest) (api.CheckpointResponse, error) {
	var resp api.CheckpointResponse
	err := c.post("/v1/checkpoint", req, &resp)
	return resp, err
}

// KillSwitch triggers the provider's emergency control.
func (c *Client) KillSwitch() (api.KillSwitchResponse, error) {
	var resp api.KillSwitchResponse
	err := c.post("/v1/killswitch", nil, &resp)
	return resp, err
}

// Pause stops new allocations on the node.
func (c *Client) Pause() error { return c.post("/v1/pause", nil, nil) }

// Resume re-enables allocations.
func (c *Client) Resume() error { return c.post("/v1/resume", nil, nil) }

// Depart asks the agent to leave the platform.
func (c *Client) Depart(reason api.DepartReason, grace time.Duration) error {
	return c.post("/v1/depart", api.DepartRequest{
		Reason: reason, GraceSeconds: int(grace / time.Second),
	}, nil)
}

// Status fetches the agent's self-report.
func (c *Client) Status() (api.AgentStatus, error) {
	var st api.AgentStatus
	err := api.GetJSON(c.HTTPClient, c.BaseURL+"/v1/status", &st)
	return st, err
}

func (c *Client) post(path string, body, out any) error {
	return api.PostJSON(c.HTTPClient, c.BaseURL+path, body, out)
}
