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
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

func main() {
	start := time.Date(2025, 9, 1, 14, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(start)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	bus := eventbus.New(1024)

	coord, err := core.New(core.Config{HeartbeatInterval: 30 * time.Second},
		clock, db.New(0), ckpts, bus)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Stop()

	agents := make(map[string]*agent.Agent)
	for _, id := range []string{"owners-ws", "lab-server"} {
		rt := container.NewRuntime(container.DefaultImages(),
			gpu.NewMixedInventory(gpu.RTX3090), 0, 0)
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"},
			clock, rt, ckpts, bus)
		ag.SetEndpoints([]agent.Endpoint{{ID: "coordinator", Link: core.LocalLink{C: coord, A: ag}}})
		resp, err := ag.Join("inproc://"+id, 1<<30)
		if err != nil {
			log.Fatal(err)
		}
		agents[id] = ag
		var beat func()
		beat = func() {
			if !ag.Departed() {
				_, _ = ag.Beat()
			}
			clock.AfterFunc(resp.HeartbeatInterval, beat)
		}
		clock.AfterFunc(resp.HeartbeatInterval, beat)
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

	clock.Advance(20 * time.Minute)

	// The owner reclaims the machine instantly.
	fmt.Printf("\n>>> owner of %s hits the KILL-SWITCH\n", host)
	killed := agents[host].KillSwitch()
	fmt.Printf("terminated instantly: %v (no coordinator involved)\n", killed)

	// ... and pauses further allocations while they run experiments.
	agents[host].Pause()
	fmt.Printf("%s paused: no new workloads will be placed there\n", host)
	clock.Advance(time.Minute)

	// The student simply opens a new session; it lands elsewhere.
	sess2, st2 := openSession("student")
	fmt.Printf("\nnew session %s running on %s (old host excluded while paused)\n",
		sess2, st2.NodeID)
	if st2.NodeID == host {
		log.Fatalf("scheduler placed a session on a paused node")
	}

	// Hours later the owner is done and resumes sharing.
	clock.Advance(2 * time.Hour)
	agents[host].Resume()
	fmt.Printf("\n%s resumed sharing; the pool is whole again\n", host)
	clock.Advance(time.Minute)

	sess3, st3 := openSession("another-student")
	fmt.Printf("session %s running on %s\n", sess3, st3.NodeID)

	fmt.Printf("\ninteractive sessions launched so far: %d\n", coord.InteractiveSessions())
	for _, n := range coord.Nodes() {
		fmt.Printf("  node %-12s status=%-8s\n", n.ID, n.Status)
	}
}
