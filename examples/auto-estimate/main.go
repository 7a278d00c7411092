// Auto-estimate: user-transparent resource invocation (paper §5.2).
//
// The paper's future-work section observes that forcing users to
// hand-estimate GPU requirements wastes resources (over-asks strand big
// GPUs; under-asks fail placements). This example shows the implemented
// answer: users describe their *model* — parameters, batch size,
// precision — and the platform derives the GPU memory request, the
// checkpoint size, the minimum compute capability, and a suggested
// device, then submits the job with those figures.
//
//	go run ./examples/auto-estimate
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

	coord, err := core.New(core.Config{HeartbeatInterval: 30 * time.Second},
		clock, db.New(0), ckpts, trace)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Stop()

	// A heterogeneous mini-campus: a 24 GiB workstation and an 80 GiB
	// A100 server.
	for id, specs := range map[string][]gpu.Spec{
		"workstation": {gpu.RTX3090},
		"a100-server": {gpu.A100},
	} {
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"},
			clock, specs, ckpts, trace)
		ag.SetEndpoints([]agent.Endpoint{{ID: "coordinator", Link: core.NewInProcessClient(coord, ag)}})
		// The agent beats on its own from the first successful Join.
		if _, err := ag.Join("inproc://"+id, 1<<30); err != nil {
			log.Fatal(err)
		}
	}

	// Users state what they know: the model, not the hardware.
	models := []workload.ModelDescription{
		{Class: workload.CNN, Parameters: 25_600_000, BatchSize: 64,
			Precision: workload.FP32, StepsPlanned: 3000}, // ResNet-50
		{Class: workload.Transformer, Parameters: 110_000_000, BatchSize: 32,
			Precision: workload.FP32, StepsPlanned: 2000}, // BERT-base
		{Class: workload.Transformer, Parameters: 3_000_000_000, BatchSize: 8,
			Precision: workload.FP16, StepsPlanned: 1000}, // 3B LM: A100 territory
	}
	names := []string{"resnet50", "bert-base", "lm-3b"}

	for i, m := range models {
		est, err := workload.EstimateResources(m)
		if err != nil {
			log.Fatal(err)
		}
		dev, err := est.SuggestDevice()
		if err != nil {
			log.Fatal(err)
		}
		eta, _ := est.EstimatedRunTime(m)
		fmt.Printf("%-10s %11d params, batch %-3d %s\n", names[i], m.Parameters, m.BatchSize, m.Precision)
		fmt.Printf("           -> request %5d MiB GPU memory, cc >= %s, checkpoint %.1f GB\n",
			est.GPUMemMiB, est.MinCapability, float64(est.StateBytes)/1e9)
		fmt.Printf("           -> suggested device %-8s  estimated run %v\n",
			dev.Model, eta.Round(time.Minute))

		spec := est.ToTrainingSpec(m)
		jobID, err := coord.SubmitJob(api.SubmitJobRequest{
			User: "auto", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
			GPUMemMiB:             est.GPUMemMiB,
			CapabilityMajor:       est.MinCapability.Major,
			CapabilityMinor:       est.MinCapability.Minor,
			CheckpointIntervalSec: 300,
			Training:              &spec,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, _ := coord.JobStatus(jobID)
		fmt.Printf("           -> %s placed on %s\n\n", jobID, placedOn(st))
	}

	// The derived requests place correctly: the 3B model lands on the
	// A100; the small models on the workstation (or wherever fits).
	clock.Advance(8 * time.Hour)
	fmt.Println("after 8 simulated hours:")
	for i := range models {
		st, _ := coord.JobStatus(fmt.Sprintf("job-%06d", i+1))
		fmt.Printf("  %-10s state=%-9s node=%s\n", names[i], st.State, placedOn(st))
	}
}

func placedOn(st api.JobStatus) string {
	if st.NodeID == "" {
		return "(queued)"
	}
	return st.NodeID
}
