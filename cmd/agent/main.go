// Command agent runs GPUnion's provider agent: it registers the node
// with the coordinator, serves the workload-lifecycle REST API, sends
// heartbeats, and enforces provider supremacy locally.
//
// Usage:
//
//	agent -coordinator http://coord:8080 [-listen :7070] [-gpus "RTX 3090:2"]
//	agent -coordinator http://coord-a:8080,http://coord-b:8080
//	agent -config agent.json
//
// -coordinator takes one address or a comma-separated list of replica
// addresses. With a list the agent registers with the first replica
// that accepts it and, when the one it talks to answers "not the
// leader" or stops answering, moves to the next and re-registers
// there.
//
// Every heartbeat goes to the replica the agent talks to and carries
// the node's device telemetry. There is no relay flag: an invocation
// that still passes -aggregator or -telemetry-every exits with the flag
// package's "flag provided but not defined" error.
//
// The node's identity is derived from the advertise address
// (config.Agent.MachineID): an agent restarted on the same address
// registers as the same node, and the coordinator keeps its departure
// and uptime history; a new address is a new node.
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
	"gpunion/internal/checkpoint"
	"gpunion/internal/config"
	"gpunion/internal/core"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

func main() {
	coordURL := flag.String("coordinator", "", "coordinator base URL, or a comma-separated list of replica URLs (overrides config)")
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

	machineID := cfg.MachineID()
	eps := coordinatorEndpoints(cfg.CoordinatorURL)
	if len(eps) == 0 {
		log.Fatalf("no coordinator address in %q", cfg.CoordinatorURL)
	}
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	ag := agent.New(agent.Config{
		MachineID:                 machineID,
		Kernel:                    cfg.Kernel,
		DefaultCheckpointInterval: time.Duration(cfg.CheckpointIntervalSec) * time.Second,
	}, simclock.Real(), specs, ckpts, nil)
	ag.SetEndpoints(eps)

	srv := &http.Server{Addr: cfg.Listen, Handler: ag.Handler()}
	go func() {
		log.Printf("gpunion agent %s listening on %s (%d GPUs)", machineID, cfg.Listen, len(specs))
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http server: %v", err)
		}
	}()

	resp, err := ag.JoinAny(cfg.AdvertiseURL, cfg.StorageBytes)
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
