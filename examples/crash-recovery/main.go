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
	"os"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/sim"
	"gpunion/internal/workload"
)

func main() {
	walDir, err := os.MkdirTemp("", "gpunion-crash-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(walDir)

	// The world's checkpoint store is the LAN file system: like the WAL
	// directory, it outlives any one coordinator process.
	w := sim.NewWorld(time.Date(2025, 9, 1, 9, 0, 0, 0, time.UTC))

	// 1. A coordinator whose database is persisted via snapshot + WAL:
	// the same core.Replica assembly the daemon boots, served at
	// "coordinator" in the world's address book. Requests go to whichever
	// process serves the address now, so a restarted coordinator keeps
	// it.
	open := func() *core.Replica {
		rep, err := w.Open("coordinator", core.ReplicaConfig{
			Dir:         walDir,
			Coordinator: core.Config{HeartbeatInterval: 30 * time.Second},
		})
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	rep := open()
	rep.Start()
	coord, store := rep.Coordinator(), rep.Store()

	// 2. Two provider nodes. Each agent's own heartbeat loop, started by
	// its first Join, outlives the first coordinator and carries on
	// against the successor.
	for _, n := range []struct {
		id    string
		specs []gpu.Spec
	}{
		{"lab-workstation", []gpu.Spec{gpu.RTX3090}},
		{"shared-server", []gpu.Spec{gpu.RTX4090, gpu.RTX4090}},
	} {
		if _, err := w.Boot(agent.Config{MachineID: n.id, Kernel: "5.15"}, n.specs, "coordinator"); err != nil {
			log.Fatal(err)
		}
	}

	// 3. Submit four training jobs (one more than there are GPUs, so
	// the queue is non-trivial), then run for a while.
	spec := workload.SmallCNN
	for i := 1; i <= 4; i++ {
		if _, err := coord.SubmitJob(sim.TrainingJobSubmission(fmt.Sprintf("user-%d", i), spec, 5*time.Minute)); err != nil {
			log.Fatal(err)
		}
	}
	w.Clock.Advance(10 * time.Minute)
	if err := rep.WAL().Checkpoint(); err != nil { // async snapshot under load
		log.Fatal(err)
	}
	w.Clock.Advance(5 * time.Minute)

	fmt.Println("--- before the crash ---")
	printJobs(store)

	// 4. Kill the coordinator. Everything it held in memory — agent
	// handles, relaunch metadata, failure-detection timers — is gone;
	// only what the WAL fsynced survives, and its address goes dark.
	preCrash := store.ExportState()
	w.Hosts.Serve("coordinator", nil)
	if err := rep.Kill(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncoordinator killed; recovering from the WAL directory")

	// 5. Boot a successor from snapshot + WAL tail at the same address.
	// Start re-arms it around the recovered state.
	rep2 := open()
	defer rep2.Close()
	r := rep2.WAL().Recovery
	fmt.Printf("recovered: snapshot=%v watermark=%d replayed=%d records\n",
		r.SnapshotLoaded, r.Watermark, r.Replayed)
	rep2.Start()
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
	w.Clock.Advance(4 * time.Hour)

	fmt.Println("\n--- four hours later ---")
	printJobs(store2)
	done := store2.CountJobsInState(db.JobCompleted)
	fmt.Printf("\n%d/4 jobs completed after the restart — none were resubmitted\n", done)
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
