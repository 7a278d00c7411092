// Crash recovery: a coordinator dies mid-run and forgets nothing.
//
// This example assembles a two-node campus whose coordinator persists
// every database mutation through the write-ahead log, submits jobs,
// kills the coordinator in-process (only the WAL directory survives,
// as in a real crash), boots a fresh coordinator from snapshot + log at
// the same address, and verifies the recovered job table is intact —
// the nodes re-join on their own next heartbeat and the jobs finish
// without anyone resubmitting them.
//
//	go run ./examples/crash-recovery
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
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
	walDir, err := os.MkdirTemp("", "gpunion-crash-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	start := time.Date(2025, 9, 1, 9, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(start)
	// The checkpoint store is the LAN file system: like the WAL
	// directory, it outlives any one coordinator process.
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	trace := obs.NewRecorder(clock, 1024)

	// 1. A coordinator whose database is persisted via snapshot + WAL:
	// the same core.Replica assembly the daemon boots.
	open := func() *core.Replica {
		rep, err := core.OpenReplica(core.ReplicaConfig{
			Dir:         walDir,
			Coordinator: core.Config{HeartbeatInterval: 30 * time.Second},
		}, clock, ckpts, trace)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	// The coordinator's address: requests go to whichever process
	// serves it now, so a restarted coordinator keeps it. The
	// coordinator reaches each agent at the address it registered.
	agents := make(map[string]*agent.Agent)
	var serving http.Handler
	serve := func(rep *core.Replica) {
		serving = rep.Coordinator().Handler(func(addr string) core.AgentHandle {
			return agent.NewInProcessClient(agents[strings.TrimPrefix(addr, "inproc://")])
		})
	}
	address := &http.Client{Transport: api.InProcess{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serving.ServeHTTP(w, r)
	})}}
	rep := open()
	rep.Start()
	serve(rep)
	coord, store := rep.Coordinator(), rep.Store()

	// 2. Two provider nodes. Each agent's own heartbeat loop, started by
	// its first Join, outlives the first coordinator and carries on
	// against the successor.
	specs := map[string][]gpu.Spec{
		"lab-workstation": {gpu.RTX3090},
		"shared-server":   {gpu.RTX4090, gpu.RTX4090},
	}
	for id, gs := range specs {
		ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"},
			clock, gs, ckpts, trace)
		agents[id] = ag
		ag.SetEndpoints([]agent.Endpoint{{ID: "coordinator", Link: &core.Client{BaseURL: "http://coordinator", HTTPClient: address}}})
		if _, err := ag.Join("inproc://"+id, 1<<30); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Submit four training jobs (one more than there are GPUs, so
	// the queue is non-trivial), then run for a while.
	spec := workload.SmallCNN
	for i := 1; i <= 4; i++ {
		if _, err := coord.SubmitJob(sim(spec, fmt.Sprintf("user-%d", i))); err != nil {
			log.Fatal(err)
		}
	}
	clock.Advance(10 * time.Minute)
	if err := rep.WAL().Checkpoint(); err != nil { // async snapshot under load
		log.Fatal(err)
	}
	clock.Advance(5 * time.Minute)

	fmt.Println("--- before the crash ---")
	printJobs(store)

	// 4. Kill the coordinator. Everything it held in memory — agent
	// handles, relaunch metadata, failure-detection timers — is gone;
	// only what the WAL fsynced survives.
	preCrash := store.ExportState()
	if err := rep.Kill(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncoordinator killed; recovering from", walDir)

	// 5. Boot a successor from snapshot + WAL tail. Start re-arms it
	// around the recovered state.
	rep2 := open()
	defer rep2.Close()
	r := rep2.WAL().Recovery
	fmt.Printf("recovered: snapshot=%v watermark=%d replayed=%d records\n",
		r.SnapshotLoaded, r.Watermark, r.Replayed)
	rep2.Start()
	serve(rep2)
	store2 := rep2.Store()

	// 6. Verify the job table survived, byte for byte.
	recovered := store2.ExportState()
	if jsonBytes(preCrash.Jobs) == jsonBytes(recovered.Jobs) &&
		jsonBytes(preCrash.Nodes) == jsonBytes(recovered.Nodes) {
		fmt.Println("job and node tables intact ✓")
	} else {
		log.Fatal("recovered state differs from pre-crash state")
	}
	fmt.Println("\n--- after recovery ---")
	printJobs(store2)

	// 7. The nodes' next heartbeats reach the successor, which asks them
	// to re-register (their running containers never stopped), and the
	// recovered queue finishes.
	clock.Advance(4 * time.Hour)

	fmt.Println("\n--- four hours later ---")
	printJobs(store2)
	done := store2.CountJobsInState(db.JobCompleted)
	fmt.Printf("\n%d/4 jobs completed after the restart — none were resubmitted\n", done)
}

func sim(spec workload.TrainingSpec, user string) api.SubmitJobRequest {
	return api.SubmitJobRequest{
		User: user, Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB:             spec.GPUMemMiB,
		CapabilityMajor:       spec.MinCapability.Major,
		CapabilityMinor:       spec.MinCapability.Minor,
		CheckpointIntervalSec: 300,
		Training:              &spec,
	}
}

func jsonBytes(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func printJobs(s db.Store) {
	for _, j := range s.ListJobs() {
		loc := j.NodeID
		if loc == "" {
			loc = "-"
		}
		fmt.Printf("  %-10s %-10s on %-16s (migrations: %d)\n", j.ID, j.State, loc, j.Migrations)
	}
}
