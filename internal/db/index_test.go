package db

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

var indexEpoch = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

var allJobStates = []JobState{
	JobPending, JobRunning, JobMigrating, JobCompleted, JobFailed, JobKilled,
}

// requireIndexesMatchRebuild asserts that every indexed query on the
// live store is byte-equivalent to the same query on a freshly rebuilt
// store (ImportState reconstructs every index from scratch), and that
// the deep structural audit is clean.
func requireIndexesMatchRebuild(t *testing.T, store *DB, nodeIDs []string) {
	t.Helper()
	if probs := store.AuditIndexes(); len(probs) != 0 {
		t.Fatalf("index audit failed: %v", probs)
	}
	fresh := New(0)
	fresh.ImportState(store.ExportState())
	for _, state := range allJobStates {
		want, _ := json.Marshal(fresh.JobsInState(state))
		got, _ := json.Marshal(store.JobsInState(state))
		if string(got) != string(want) {
			t.Fatalf("JobsInState(%s) diverges from fresh rebuild:\n got %s\nwant %s", state, got, want)
		}
		if g, w := store.CountJobsInState(state), fresh.CountJobsInState(state); g != w {
			t.Fatalf("CountJobsInState(%s) = %d, rebuild says %d", state, g, w)
		}
	}
	for _, id := range nodeIDs {
		want, _ := json.Marshal(fresh.JobsOnNode(id))
		got, _ := json.Marshal(store.JobsOnNode(id))
		if string(got) != string(want) {
			t.Fatalf("JobsOnNode(%s) diverges from fresh rebuild:\n got %s\nwant %s", id, got, want)
		}
	}
}

// TestIndexConsistencyProperty drives randomized mutation sequences —
// inserts, state transitions, priority flips, placement moves, replay
// via Apply, and full export/import round-trips — and asserts after
// each trial that the incrementally maintained indexes are equivalent
// to a fresh full-scan rebuild.
func TestIndexConsistencyProperty(t *testing.T) {
	nodeIDs := []string{"n1", "n2", "n3", "n4"}
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(100 + trial))
		store := New(0)
		var ids []string
		randomJob := func(id string) JobRecord {
			j := JobRecord{
				ID:          id,
				State:       allJobStates[rng.Intn(len(allJobStates))],
				Priority:    rng.Intn(5),
				SubmittedAt: indexEpoch.Add(time.Duration(rng.Intn(50)) * time.Second),
			}
			if j.State == JobRunning || j.State == JobMigrating {
				j.NodeID = nodeIDs[rng.Intn(len(nodeIDs))]
				j.DeviceID = "gpu0"
			}
			return j
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(20); {
			case r < 8 || len(ids) == 0: // insert
				id := fmt.Sprintf("job-%03d", len(ids))
				ids = append(ids, id)
				if err := store.InsertJob(randomJob(id)); err != nil {
					t.Fatal(err)
				}
			case r < 15: // in-place update: state, priority, placement
				id := ids[rng.Intn(len(ids))]
				next := randomJob(id)
				if err := store.UpdateJob(id, func(j *JobRecord) {
					j.State, j.Priority = next.State, next.Priority
					j.NodeID, j.DeviceID = next.NodeID, next.DeviceID
				}); err != nil {
					t.Fatal(err)
				}
			case r < 18: // replayed after-image (the recovery path)
				j := randomJob(ids[rng.Intn(len(ids))])
				if err := store.Apply(Mutation{LSN: store.CurrentLSN() + 1, Type: MutJobPut, Job: &j}); err != nil {
					t.Fatal(err)
				}
			default: // full checkpoint round-trip rebuilds every index
				store.ImportState(store.ExportState())
			}
		}
		requireIndexesMatchRebuild(t, store, nodeIDs)
	}
}

// TestAuditIndexesDetectsCorruption proves the deep audit actually
// fires: each sabotage reaches into the job table and breaks one index
// structure directly, bypassing the maintenance paths.
func TestAuditIndexesDetectsCorruption(t *testing.T) {
	seed := func(t *testing.T) *DB {
		store := New(0)
		for i := 0; i < 40; i++ {
			j := JobRecord{
				ID: fmt.Sprintf("job-%03d", i), State: JobPending,
				Priority: i % 3, SubmittedAt: indexEpoch.Add(time.Duration(i) * time.Second),
			}
			if i%2 == 0 {
				j.State, j.NodeID, j.DeviceID = JobRunning, "n1", "gpu0"
			}
			if err := store.InsertJob(j); err != nil {
				t.Fatal(err)
			}
		}
		return store
	}
	sabotages := []struct {
		name  string
		wreck func(jobs *jobTable)
	}{
		{"queue-drop", func(jobs *jobTable) {
			jobs.queue[JobPending] = jobs.queue[JobPending][1:]
		}},
		{"queue-reorder", func(jobs *jobTable) {
			q := jobs.queue[JobPending]
			q[0], q[len(q)-1] = q[len(q)-1], q[0]
		}},
		{"bynode-stale", func(jobs *jobTable) {
			ghost := *jobs.queue[JobRunning][0]
			ghost.NodeID = "n-ghost"
			jobs.byNode["n-ghost"] = map[string]*JobRecord{ghost.ID: &ghost}
		}},
		{"count-skew", func(jobs *jobTable) {
			jobs.stateCount[JobPending]++
		}},
	}
	for _, sab := range sabotages {
		t.Run(sab.name, func(t *testing.T) {
			store := seed(t)
			if probs := store.AuditIndexes(); len(probs) != 0 {
				t.Fatalf("audit dirty before sabotage: %v", probs)
			}
			sab.wreck(&store.jobs)
			if probs := store.AuditIndexes(); len(probs) == 0 {
				t.Fatal("sabotage went undetected")
			}
		})
	}
}

// TestReadCopiesSurviveUpdates pins the copy-on-write contract: a
// record copy handed out before an update keeps its original slice
// contents — mutators must never write through shared storage.
func TestReadCopiesSurviveUpdates(t *testing.T) {
	store := New(0)
	store.UpsertNode(NodeRecord{
		ID: "n1", Status: NodeActive,
		GPUs: []GPUInfo{{DeviceID: "gpu0", Allocated: false}},
	})
	before, err := store.GetNode("n1")
	if err != nil {
		t.Fatal(err)
	}
	listed := store.ListNodes()
	if err := store.UpdateNode("n1", func(n *NodeRecord) {
		n.GPUs[0].Allocated = true
	}); err != nil {
		t.Fatal(err)
	}
	if before.GPUs[0].Allocated || listed[0].GPUs[0].Allocated {
		t.Fatal("update wrote through a previously returned copy")
	}
	after, _ := store.GetNode("n1")
	if !after.GPUs[0].Allocated {
		t.Fatal("update lost")
	}
}
