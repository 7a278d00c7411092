// Interactive session & provider supremacy: the kill-switch in action.
//
// A student opens a Jupyter-style session on a borrowed workstation.
// The owner needs the GPU back *right now* and hits the kill-switch —
// no negotiation, no coordinator round-trip. The student's next session
// attempt lands on another node; the owner pauses further allocations
// and later resumes. Provider control is absolute and instantaneous;
// the platform absorbs the churn.
//
//	go run ./examples/interactive-session
package main

import (
	"fmt"
	"log"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/gpu"
	"gpunion/internal/sim"
)

func main() {
	w := sim.NewWorld(time.Date(2025, 9, 1, 14, 0, 0, 0, time.UTC))
	rep, err := w.Open("coordinator", core.ReplicaConfig{
		Coordinator: core.Config{HeartbeatInterval: 30 * time.Second}})
	if err != nil {
		log.Fatal(err)
	}
	rep.Start()
	defer rep.Close()
	coord := rep.Coordinator()

	agents := make(map[string]*agent.Agent)
	for _, id := range []string{"owners-ws", "lab-server"} {
		// The agent beats on its own from the first successful join.
		ag, err := w.Boot(agent.Config{MachineID: id, Kernel: "5.15"}, []gpu.Spec{gpu.RTX3090}, "coordinator")
		if err != nil {
			log.Fatal(err)
		}
		agents[id] = ag
	}

	openSession := func(who string) (string, api.JobStatus) {
		id, err := coord.SubmitJob(api.SubmitJobRequest{
			User: who, Kind: "interactive", ImageName: "gpunion/jupyter-dl:latest",
			Priority: 10, GPUMemMiB: 8192, SessionSeconds: 4 * 3600,
		})
		if err != nil {
			log.Fatal(err)
		}
		st, _ := coord.JobStatus(id)
		return id, st
	}

	// The student gets a notebook on whichever node is free first.
	sess1, st := openSession("student")
	fmt.Printf("session %s running on %s — Jupyter env, NVIDIA_VISIBLE_DEVICES bound\n",
		sess1, st.NodeID)
	host := st.NodeID

	w.Clock.Advance(20 * time.Minute)

	// The owner reclaims the machine instantly.
	fmt.Printf("\n>>> owner of %s hits the KILL-SWITCH\n", host)
	killed := agents[host].KillSwitch()
	fmt.Printf("terminated instantly: %v (no coordinator involved)\n", killed)

	// ... and pauses further allocations while they run experiments.
	agents[host].Pause()
	fmt.Printf("%s paused: no new workloads will be placed there\n", host)
	w.Clock.Advance(time.Minute)

	// The student simply opens a new session; it lands elsewhere.
	sess2, st2 := openSession("student")
	fmt.Printf("\nnew session %s running on %s (old host excluded while paused)\n",
		sess2, st2.NodeID)
	if st2.NodeID == host {
		log.Fatalf("scheduler placed a session on a paused node")
	}

	// Hours later the owner is done and resumes sharing.
	w.Clock.Advance(2 * time.Hour)
	agents[host].Resume()
	fmt.Printf("\n%s resumed sharing; the pool is whole again\n", host)
	w.Clock.Advance(time.Minute)

	sess3, st3 := openSession("another-student")
	fmt.Printf("session %s running on %s\n", sess3, st3.NodeID)

	fmt.Printf("\ninteractive sessions launched so far: %d\n", coord.InteractiveSessions())
	for _, n := range coord.Nodes() {
		fmt.Printf("  node %-12s status=%-8s\n", n.ID, n.Status)
	}
}
