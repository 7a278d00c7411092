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
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/sim"
	"gpunion/internal/workload"
)

func main() {
	w := sim.NewWorld(time.Date(2025, 9, 1, 9, 0, 0, 0, time.UTC))

	// 1. The central coordinator: the replica the daemon boots, served
	// at "coordinator" in the world's address book.
	rep, err := w.Open("coordinator", core.ReplicaConfig{
		Coordinator: core.Config{HeartbeatInterval: 30 * time.Second}})
	if err != nil {
		log.Fatal(err)
	}
	rep.Start()
	defer rep.Close()
	coord := rep.Coordinator()

	// 2. Two provider nodes: a lab workstation and a shared server.
	nodes := []struct {
		id    string
		specs []gpu.Spec
	}{
		{"lab-workstation", []gpu.Spec{gpu.RTX3090}},
		{"shared-server", []gpu.Spec{gpu.RTX4090, gpu.RTX4090}},
	}
	for _, n := range nodes {
		// Joining starts the agent's heartbeat loop on the simulated clock.
		if _, err := w.Boot(agent.Config{MachineID: n.id, Kernel: "5.15"}, n.specs, "coordinator"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("registered %-16s with %d GPU(s)\n", n.id, len(n.specs))
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
		w.Clock.Advance(15 * time.Minute)
		st, err := coord.JobStatus(jobID)
		if err != nil {
			log.Fatal(err)
		}
		seqs, _ := w.Ckpts.Sequences(jobID)
		fmt.Printf("t+%3dm  state=%-9s node=%-16s checkpoints=%d\n",
			(i+1)*15, st.State, st.NodeID, len(seqs))
		if st.State == db.JobCompleted {
			fmt.Printf("\njob finished after %v of simulated time\n",
				st.Finished.Sub(st.Submitted).Round(time.Minute))
			break
		}
	}

	// 5. The platform saw everything.
	hist := w.Trace.Events()
	fmt.Printf("\nevents observed: %d (last few below)\n", len(hist))
	if len(hist) > 5 {
		hist = hist[len(hist)-5:]
	}
	for _, ev := range hist {
		fmt.Printf("  %s %-18s job=%s\n", ev.Time.Format("15:04:05"), ev.Kind, ev.Job)
	}
}
