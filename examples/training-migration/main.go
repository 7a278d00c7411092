// Training migration: a long-running job survives its provider leaving.
//
// A transformer fine-tune runs on a volunteer workstation. Mid-training
// the provider departs — first with notice (scheduled: a final
// checkpoint is captured), later silently (emergency: the coordinator
// detects heartbeat loss and restores from the last periodic
// checkpoint). The job completes despite both interruptions; the only
// cost is the work since the last checkpoint.
//
//	go run ./examples/training-migration
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
	"gpunion/internal/obs"
	"gpunion/internal/sim"
	"gpunion/internal/simclock"
	"gpunion/internal/workload"
)

func main() {
	start := time.Date(2025, 9, 1, 9, 0, 0, 0, time.UTC)
	w := sim.NewWorld(start)
	clock := w.Clock
	rep, err := w.Open("coordinator", core.ReplicaConfig{
		Coordinator: core.Config{HeartbeatInterval: 30 * time.Second}})
	if err != nil {
		log.Fatal(err)
	}
	rep.Start()
	defer rep.Close()
	coord := rep.Coordinator()

	agents := make(map[string]*agent.Agent)
	for _, id := range []string{"volunteer-ws", "backup-1", "backup-2"} {
		// The agent beats on its own from the first successful join.
		ag, err := w.Boot(agent.Config{MachineID: id, Kernel: "5.15"}, []gpu.Spec{gpu.RTX3090}, "coordinator")
		if err != nil {
			log.Fatal(err)
		}
		agents[id] = ag
	}

	// Narrate the platform's migration machinery as it acts.
	w.Trace.Observe(func(ev obs.Event) {
		switch ev.Kind {
		case obs.KindJobCheckpoint:
			fmt.Printf("%s  checkpoint seq=%v (%v bytes, incremental=%v)\n",
				stamp(clock, start), ev.Detail["seq"], ev.Detail["bytes"], ev.Detail["incremental"])
		case obs.KindJobMigrated:
			fmt.Printf("%s  MIGRATED %s -> %s (resume step %v, reason %v)\n",
				stamp(clock, start), ev.Detail["from"], ev.Node, ev.Detail["restore_step"], ev.Detail["reason"])
		case obs.KindNodeUnreachable:
			fmt.Printf("%s  node %s unreachable (3 missed heartbeats)\n", stamp(clock, start), ev.Node)
		case obs.KindNodeDeparted:
			fmt.Printf("%s  node %s departed (%v)\n", stamp(clock, start), ev.Node, ev.Detail["reason"])
		}
	})

	spec := workload.SmallTransformer
	jobID, err := coord.SubmitJob(api.SubmitJobRequest{
		User: "bob", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, CheckpointIntervalSec: 600, Training: &spec,
	})
	if err != nil {
		log.Fatal(err)
	}
	st, _ := coord.JobStatus(jobID)
	fmt.Printf("%s  job %s started on %s (%d total steps, ~%v)\n\n",
		stamp(clock, start), jobID, st.NodeID, spec.TotalSteps,
		spec.RunTime(gpu.RTX3090).Round(time.Minute))
	home := st.NodeID

	// Act 1: 45 minutes of quiet training.
	clock.Advance(45 * time.Minute)

	// Act 2: the provider announces a scheduled departure.
	fmt.Printf("\n%s  >>> provider %s departs gracefully (kill-switch with notice)\n",
		stamp(clock, start), home)
	agents[home].Depart(api.DepartScheduled, 2*time.Minute)
	clock.Advance(time.Minute)
	report(coord, jobID)

	// Act 3: an hour later, the new host dies silently.
	clock.Advance(time.Hour)
	st, _ = coord.JobStatus(jobID)
	fmt.Printf("\n%s  >>> provider %s loses power (emergency, no notice)\n",
		stamp(clock, start), st.NodeID)
	agents[st.NodeID].Depart(api.DepartEmergency, 0)
	clock.Advance(3 * time.Minute) // detection takes 3 missed beats
	report(coord, jobID)

	// Act 4: run to completion.
	for i := 0; i < 48; i++ {
		clock.Advance(15 * time.Minute)
		st, _ = coord.JobStatus(jobID)
		if st.State == db.JobCompleted {
			break
		}
	}
	st, _ = coord.JobStatus(jobID)
	fmt.Printf("\n%s  job %s: state=%s migrations=%d\n",
		stamp(clock, start), jobID, st.State, st.Migrations)
	if st.State == db.JobCompleted {
		total := st.Finished.Sub(st.Submitted)
		ideal := spec.RunTime(gpu.RTX3090)
		fmt.Printf("total time %v vs uninterrupted %v (+%.1f%%) — the cost of two provider losses\n",
			total.Round(time.Minute), ideal.Round(time.Minute),
			100*float64(total-ideal)/float64(ideal))
	}
}

func stamp(clock *simclock.Sim, start time.Time) string {
	return fmt.Sprintf("[t+%6s]", clock.Now().Sub(start).Round(time.Second))
}

func report(coord *core.Coordinator, jobID string) {
	st, err := coord.JobStatus(jobID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("            job now: state=%s node=%s migrations=%d\n",
		st.State, st.NodeID, st.Migrations)
}
