// Command agent runs GPUnion's provider agent: it registers the node
// with the coordinator, serves the workload-lifecycle REST API, sends
// heartbeats, and enforces provider supremacy locally.
//
// Usage:
//
//	agent -coordinator http://coord:8080 [-listen :7070] [-gpus "RTX 3090:2"]
//	agent -coordinator http://coord-a:8080,http://coord-b:8080
//	agent -coordinator http://coord:8080 -aggregator http://rack-agg:7080
//	agent -config agent.json
//
// -coordinator takes one address or a comma-separated list of replica
// addresses. With a list the agent registers with the first replica
// that accepts it and, when the one it talks to answers "not the
// leader" or stops answering, moves to the next and re-registers
// there.
//
// With -aggregator, heartbeats prefer the rack relay (which acks no-op
// beats locally and rolls them up); the agent falls back to the direct
// coordinator endpoint whenever the relay errors or answers stale.
// Pair it with -telemetry-every N (telemetry attached every Nth beat)
// — a beat carrying telemetry always passes through the relay, so
// only the off-cadence idle beats fold.
//
// SIGINT triggers a *scheduled* departure: running jobs are checkpointed
// and the coordinator is told to migrate them. SIGTERM departs without
// notice (emergency semantics: the coordinator learns via heartbeat
// loss).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

func main() {
	coordURL := flag.String("coordinator", "", "coordinator base URL, or a comma-separated list of replica URLs (overrides config)")
	aggURL := flag.String("aggregator", "", "rack aggregator base URL (optional heartbeat relay)")
	telemetryEvery := flag.Int("telemetry-every", 0, "attach telemetry every Nth beat (0 = every beat; set >1 behind an aggregator so idle beats fold)")
	listen := flag.String("listen", "", "HTTP bind address (overrides config)")
	gpus := flag.String("gpus", "", `installed devices, e.g. "RTX 3090:2,A100:1" (overrides config)`)
	cfgPath := flag.String("config", "", "path to agent.json")
	flag.Parse()

	var cfg config.Agent
	if *cfgPath != "" {
		var err error
		cfg, err = config.LoadAgent(*cfgPath)
		if err != nil {
			log.Fatalf("loading config: %v", err)
		}
	}
	if *coordURL != "" {
		cfg.CoordinatorURL = *coordURL
	}
	if *listen != "" {
		cfg.Listen = *listen
		cfg.AdvertiseURL = ""
	}
	if *gpus != "" {
		entries, err := parseGPUFlag(*gpus)
		if err != nil {
			log.Fatalf("parsing -gpus: %v", err)
		}
		cfg.GPUs = entries
	}
	if err := cfg.Validate(); err != nil {
		log.Fatalf("config: %v", err)
	}
	specs, err := cfg.Inventory()
	if err != nil {
		log.Fatalf("inventory: %v", err)
	}

	machineID, err := auth.NewMachineID()
	if err != nil {
		log.Fatalf("generating machine id: %v", err)
	}

	eps := coordinatorEndpoints(cfg.CoordinatorURL)
	if len(eps) == 0 {
		log.Fatalf("no coordinator address in %q", cfg.CoordinatorURL)
	}
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	ag := agent.New(agent.Config{
		MachineID:                 machineID,
		Kernel:                    cfg.Kernel,
		DefaultCheckpointInterval: time.Duration(cfg.CheckpointIntervalSec) * time.Second,
		TelemetryEvery:            *telemetryEvery,
	}, simclock.Real(), specs, ckpts, nil)
	ag.SetEndpoints(eps)
	if *aggURL != "" {
		ag.SetAggregator(*aggURL, core.NewClient(*aggURL))
	}

	srv := &http.Server{Addr: cfg.Listen, Handler: ag.Handler()}
	go func() {
		log.Printf("gpunion agent %s listening on %s (%d GPUs)", machineID, cfg.Listen, len(specs))
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http server: %v", err)
		}
	}()

	var resp api.RegisterResponse
	for range eps {
		if resp, err = ag.Join(cfg.AdvertiseURL, cfg.StorageBytes); err == nil {
			break
		}
		ag.Redirect("") // a standby or a dead address: try the next one
	}
	if err != nil {
		log.Fatalf("registering with %s: %v", cfg.CoordinatorURL, err)
	}
	log.Printf("registered with %s; heartbeating every %v", ag.ActiveEndpoint().ID, resp.HeartbeatInterval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	s := <-sig
	if s == syscall.SIGINT {
		log.Printf("scheduled departure: checkpointing workloads")
		ag.Depart(api.DepartScheduled, 2*time.Minute)
	} else {
		log.Printf("emergency departure")
		ag.Depart(api.DepartEmergency, 0)
	}
	ag.Stop()
	_ = srv.Close()
}

// coordinatorEndpoints builds the agent's endpoint set from
// -coordinator's comma-separated address list: one HTTP client per
// replica, named by its address.
func coordinatorEndpoints(list string) []agent.Endpoint {
	var eps []agent.Endpoint
	for _, url := range strings.Split(list, ",") {
		if url = strings.TrimSpace(url); url != "" {
			eps = append(eps, agent.Endpoint{ID: url, Link: core.NewClient(url)})
		}
	}
	return eps
}

// parseGPUFlag parses "MODEL:N,MODEL:N" device lists.
func parseGPUFlag(s string) ([]config.GPUEntry, error) {
	var out []config.GPUEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		model, countStr, ok := strings.Cut(part, ":")
		count := 1
		if ok {
			n, err := strconv.Atoi(strings.TrimSpace(countStr))
			if err != nil {
				return nil, fmt.Errorf("bad count in %q: %w", part, err)
			}
			count = n
		}
		out = append(out, config.GPUEntry{Model: strings.TrimSpace(model), Count: count})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no devices in %q", s)
	}
	return out, nil
}
