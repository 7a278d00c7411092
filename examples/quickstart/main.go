// Quickstart: a two-node GPUnion campus in one process.
//
// This example assembles the real platform components — coordinator,
// two provider agents, the shared checkpoint store — on a simulated
// clock, submits a training job through the public submission API, and
// watches it run to completion. Six simulated hours pass in
// milliseconds.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

func main() {
	start := time.Date(2025, 9, 1, 9, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(start)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	trace := obs.NewRecorder(clock, 1024)

	// 1. The central coordinator.
	coord, err := core.New(core.Config{HeartbeatInterval: 30 * time.Second},
		clock, db.New(0), ckpts, trace)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Stop()

	// 2. Two provider nodes: a lab workstation and a shared server.
	nodes := map[string][]gpu.Spec{
		"lab-workstation": {gpu.RTX3090},
		"shared-server":   {gpu.RTX4090, gpu.RTX4090},
	}
	for id, specs := range nodes {
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"},
			clock, specs, ckpts, trace)
		ag.SetEndpoints([]agent.Endpoint{{ID: "coordinator", Link: core.NewInProcessClient(coord, ag)}})
		// Joining starts the agent's heartbeat loop on the simulated clock.
		if _, err := ag.Join("inproc://"+id, 1<<30); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-16s with %d GPU(s)\n", id, len(specs))
	}

	// 3. Submit a ResNet-class training job with 5-minute checkpoints.
	spec := workload.SmallCNN
	jobID, err := coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 300, Training: &spec,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := coord.JobStatus(jobID)
	fmt.Printf("\nsubmitted %s -> scheduled on %s (device %s)\n", jobID, st.NodeID, st.DeviceID)

	// 4. Watch progress every 15 simulated minutes.
	for i := 0; i < 24; i++ {
		clock.Advance(15 * time.Minute)
		st, err := coord.JobStatus(jobID)
		if err != nil {
			log.Fatal(err)
		}
		seqs, _ := ckpts.Sequences(jobID)
		fmt.Printf("t+%3dm  state=%-9s node=%-16s checkpoints=%d\n",
			(i+1)*15, st.State, st.NodeID, len(seqs))
		if st.State == db.JobCompleted {
			fmt.Printf("\njob finished after %v of simulated time\n",
				st.Finished.Sub(st.Submitted).Round(time.Minute))
			break
		}
	}

	// 5. The platform saw everything.
	hist := trace.Events()
	fmt.Printf("\nevents observed: %d (last few below)\n", len(hist))
	if len(hist) > 5 {
		hist = hist[len(hist)-5:]
	}
	for _, ev := range hist {
		fmt.Printf("  %s %-18s job=%s\n", ev.Time.Format("15:04:05"), ev.Kind, ev.Job)
	}
}
