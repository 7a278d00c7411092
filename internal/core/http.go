package core

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
)

// maxAggregatedBody bounds one aggregated-batch request body: the
// entry caps in api already bound the decoded size, this bounds what
// the decoder is even offered.
const maxAggregatedBody = 64 << 20

// HandleFactory builds an AgentHandle for a newly registered node's
// address. The default dials the agent's REST API; the sims, the chaos
// harness and the examples reach it in process, through their world's
// address book (api.Hosts), at the same address.
type HandleFactory func(addr string) AgentHandle

// DefaultHandleFactory returns HTTP handles.
func DefaultHandleFactory(addr string) AgentHandle {
	return agent.NewClient(addr)
}

// writeAgentAnswer answers a departure notice or a job report: 204 when
// applied (or dropped as stale), 401 for a bad or missing credential,
// 400 otherwise — a not-leader answer carries its hint in the body.
func writeAgentAnswer(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, ErrBadToken):
		api.WriteError(w, http.StatusUnauthorized, err)
	default:
		api.WriteError(w, http.StatusBadRequest, err)
	}
}

// Handler returns the coordinator's REST API.
func (c *Coordinator) Handler(factory HandleFactory) http.Handler {
	if factory == nil {
		factory = DefaultHandleFactory
	}
	mux := http.NewServeMux()

	mux.HandleFunc("POST /v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req api.RegisterRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Register(req, factory(req.Addr))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req api.HeartbeatRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := c.Heartbeat(req)
		if err != nil {
			api.WriteError(w, http.StatusUnauthorized, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/aggregated", func(w http.ResponseWriter, r *http.Request) {
		// Aggregated batches arrive in the compact binary format
		// (api.EncodeAggregatedBeat), not JSON: the whole point of the
		// tier is to keep the coordinator-facing hop small.
		raw, err := io.ReadAll(io.LimitReader(r.Body, maxAggregatedBody))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, fmt.Errorf("core: reading aggregated batch: %w", err))
			return
		}
		batch, err := api.DecodeAggregatedBeat(raw)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		resp, err := c.IngestAggregated(batch)
		if err != nil {
			api.WriteError(w, http.StatusUnauthorized, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /v1/depart", func(w http.ResponseWriter, r *http.Request) {
		var req api.DepartRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		writeAgentAnswer(w, c.Depart(req))
	})

	mux.HandleFunc("POST /v1/jobupdate", func(w http.ResponseWriter, r *http.Request) {
		var req api.JobUpdateRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		writeAgentAnswer(w, c.JobUpdate(req))
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req api.SubmitJobRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		id, err := c.SubmitJob(req)
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, api.SubmitJobResponse{JobID: id})
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, c.Jobs())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := c.JobStatus(r.PathValue("id"))
		if err != nil {
			api.WriteError(w, http.StatusNotFound, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("POST /v1/jobs/{id}/kill", func(w http.ResponseWriter, r *http.Request) {
		if err := c.KillJob(r.PathValue("id")); err != nil {
			api.WriteError(w, http.StatusNotFound, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("GET /v1/nodes", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, c.Nodes())
	})

	// One node's retained telemetry points of one metric, oldest first;
	// since (a duration, e.g. 5m) keeps only the most recent window.
	mux.HandleFunc("GET /v1/nodes/{id}/samples", func(w http.ResponseWriter, r *http.Request) {
		id, q := r.PathValue("id"), r.URL.Query()
		if _, err := c.db.GetNode(id); err != nil {
			api.WriteError(w, http.StatusNotFound, fmt.Errorf("%w: %s", ErrUnknownNode, id))
			return
		}
		since, err := time.ParseDuration(cmp.Or(q.Get("since"), "0s"))
		if err != nil {
			api.WriteError(w, http.StatusBadRequest, err)
			return
		}
		from, noEnd := time.Time{}, time.Unix(1<<40, 0)
		if since > 0 {
			from = c.clock.Now().Add(-since)
		}
		api.WriteJSON(w, http.StatusOK, c.db.SamplesInRange(q.Get("metric"), id, from, noEnd))
	})

	mux.HandleFunc("GET /v1/health/nodes", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, c.NodeHealths())
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		// Derived gauges (job states, leadership, pool cache,
		// checkpoint verification) are recomputed per scrape.
		c.refreshGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = c.metrics.WriteText(w)
	})

	mux.HandleFunc("GET /v1/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.trace.ExportJSON(w)
	})

	if c.cfg.EnableProfiling {
		// Mount pprof explicitly instead of importing its DefaultServeMux
		// side effects: profiling stays opt-in per coordinator.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	// The web interface: a read-only status page for campus users.
	mux.HandleFunc("GET /{$}", c.Dashboard())

	return mux
}
