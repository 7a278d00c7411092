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
