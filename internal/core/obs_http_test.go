package core

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// TestHTTPMetricsExposition scrapes the coordinator's /v1/metrics after
// real traffic and asserts the full observability surface is present:
// WAL shipping lag, per-state job counts, heartbeat ingest, scheduler
// pool and batch instrumentation, leadership gauges, and per-type
// store mutation counters.
func TestHTTPMetricsExposition(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090)

	if _, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, Training: &workload.SmallCNN,
	}); err != nil {
		t.Fatal(err)
	}
	// Let a few heartbeats land so the ingest counter moves.
	r.clock.Advance(500 * time.Millisecond)

	body, err := r.client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gpunion_wal_ship_lag_bytes",
		"gpunion_wal_ship_lag_records",
		`gpunion_jobs{state="running"} 1`,
		`gpunion_jobs{state="pending"} 0`,
		"gpunion_heartbeats_total",
		"gpunion_heartbeat_duplicates_total",
		"gpunion_sched_pool_hits_total",
		"gpunion_sched_pool_misses_total",
		"gpunion_sched_batch_fill_bucket",
		"gpunion_scheduling_latency_seconds",
		"gpunion_leader_epoch 0",
		"gpunion_leading 1",
		`gpunion_store_mutations_total{type="job_put"}`,
		"gpunion_checkpoint_corruptions_total",
		"gpunion_checkpoint_fallbacks_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", body)
	}
}

// TestHTTPTraceEndpoint drives one job to completion over the REST path
// and asserts /v1/trace returns its lifecycle as ordered, simclock-
// timestamped events.
func TestHTTPTraceEndpoint(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090)

	spec := workload.SmallCNN
	spec.TotalSteps = 20
	jobID, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.waitFor(30*time.Second, func() bool {
		st, err := r.client.JobStatus(jobID)
		return err == nil && st.State == db.JobCompleted
	})

	exp, err := r.client.TraceExport()
	if err != nil {
		t.Fatal(err)
	}
	timeline := obs.JobTimeline(exp.Events, jobID)
	kinds := obs.Kinds(timeline)
	for _, want := range []string{"job.submitted", "job.scheduled", "job.completed"} {
		if kinds[want] == 0 {
			t.Errorf("trace missing %s for %s (got %v)", want, jobID, kinds)
		}
	}
	spans := obs.Spans(timeline, "job.submitted", "job.completed")
	if len(spans) != 1 || spans[0].Duration <= 0 {
		t.Fatalf("lifecycle span = %+v", spans)
	}
}

// TestHTTPPprofGated verifies profiling endpoints exist only when
// Config.EnableProfiling is set.
func TestHTTPPprofGated(t *testing.T) {
	r := newHTTPRig(t)
	resp, err := r.coordSrv.Client().Get(r.coordSrv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("pprof served without opt-in: %d", resp.StatusCode)
	}

	clock := simclock.NewSim(t0)
	coord, err := New(Config{EnableProfiling: true}, clock,
		db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), eventbus.New(16))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	srv := httptest.NewServer(coord.Handler(nil))
	t.Cleanup(srv.Close)
	resp2, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("pprof index with opt-in: %d", resp2.StatusCode)
	}
}
