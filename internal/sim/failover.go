package sim

import (
	"errors"
	"fmt"
	"os"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

// FailoverConfig tunes the scripted leader-handoff scenario.
type FailoverConfig struct {
	// Nodes is how many 2×RTX3090 provider nodes join (default 4).
	Nodes int
	// Jobs is how many training jobs are submitted before the kill
	// (default 12 — more than the fleet holds, so a pending tail rides
	// through the handoff).
	Jobs int
	// PostFailover is how long the simulation runs after the standby
	// takes over (default 4 h — enough for every SmallCNN to finish).
	PostFailover time.Duration
}

// FailoverResult is what the scenario measured.
type FailoverResult struct {
	SubmittedJobs int
	PendingAtKill int
	RunningAtKill int
	LeaderAtKill  string
	EpochAtKill   uint64
	// StandbyRejectedBeforePromotion records that the warm standby
	// fenced a submission while the leader was alive, returning a
	// leader hint.
	StandbyRejectedBeforePromotion bool
	// PromotionDelay is how long the slot stayed vacant: the dead
	// leader's remaining grant plus the arbiter's skew-tolerance grace.
	PromotionDelay time.Duration
	NewLeader      string
	NewEpoch       uint64
	// LostAcked is the zero-lost-acked-mutations audit of the promoted
	// store against the dead leader's final state (empty = pass).
	LostAcked []invariant.Violation
	// Post-handoff liveness: the inherited queue must drain without
	// resubmission.
	CompletedAfterFailover int
	LostJobs               int
}

// RunFailover is the scripted replication demo: two coordinator
// replicas compete for a lease, the leader ships every durable mutation
// to the standby as part of acking it, agents hold both endpoints. The
// leader is killed without warning; the standby's acquisition attempts
// fail until the dead grant plus the skew grace runs out, then it
// promotes — drains the shipped log, verifies nothing acked was lost,
// recovers coordinator state, and the fleet re-registers under the new
// epoch and finishes the inherited work.
func RunFailover(cfg FailoverConfig) (FailoverResult, error) {
	var res FailoverResult
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 12
	}
	if cfg.PostFailover <= 0 {
		cfg.PostFailover = 4 * time.Hour
	}
	dirA, err := os.MkdirTemp("", "gpunion-wal-a-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "gpunion-wal-b-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dirB)

	clock := simclock.NewSim(Epoch)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	bus := eventbus.New(4096)
	lease := core.NewLease(core.NewMemLeaseStore(), clock, 30*time.Second, 2*time.Minute)

	// Two replicas of one assembly: the leader logs to dirA, the warm
	// standby applies the shipped stream and fences until promoted.
	var repA, repB *core.Replica
	open := func(id, dir, follow string, onDurable func(db.Mutation)) (*core.Replica, error) {
		return core.OpenReplica(core.ReplicaConfig{
			Dir: dir, FollowDir: follow,
			WAL: wal.Config{OnDurable: onDurable},
			Coordinator: core.Config{HeartbeatInterval: time.Minute, BatchSize: 8,
				Lease: lease, ReplicaID: id},
		}, clock, ckpts, bus)
	}
	// Semi-synchronous shipping: runs after the record is durable and
	// before the store acks, so acked implies on-standby.
	if repA, err = open("coord-a", dirA, "", func(db.Mutation) { _ = repB.Pump() }); err != nil {
		return res, err
	}
	if repB, err = open("coord-b", dirB, dirA, nil); err != nil {
		return res, err
	}
	defer repB.Kill()
	coordA, storeA := repA.Coordinator(), repA.Store()
	coordB, standby := repB.Coordinator(), repB.Store()
	repA.Start()
	if !coordA.TryLead() {
		return res, fmt.Errorf("coord-a failed to take the free lease")
	}

	active := coordA

	// The agents learn both replicas up front; a leader change is a
	// redirect, not a reconfiguration, and this scripted run makes it
	// explicitly. A job report the dead leader does not answer stays
	// with its agent, which re-sends it after its next answered beat.
	agents, err := scriptedFleet(cfg.Nodes, clock, ckpts, bus,
		func() bool { return active != nil },
		func(ag *agent.Agent) []agent.Endpoint {
			return []agent.Endpoint{localEndpoint("coord-a", coordA, ag), localEndpoint("coord-b", coordB, ag)}
		})
	if err != nil {
		return res, err
	}

	for i := 0; i < cfg.Jobs; i++ {
		req := TrainingJobSubmission(fmt.Sprintf("user-%d", i%3), workload.SmallCNN, 5*time.Minute)
		if _, err := coordA.SubmitJob(req); err != nil {
			return res, err
		}
	}
	res.SubmittedJobs = cfg.Jobs
	clock.Advance(15 * time.Minute)

	// The standby fences while the leader lives.
	_, err = coordB.SubmitJob(TrainingJobSubmission("user-x", workload.SmallCNN, 5*time.Minute))
	var nl api.ErrNotLeader
	res.StandbyRejectedBeforePromotion = errors.As(err, &nl) && nl.LeaderHint == "coord-a"

	res.PendingAtKill = storeA.CountJobsInState(db.JobPending)
	res.RunningAtKill = storeA.CountJobsInState(db.JobRunning)
	res.LeaderAtKill, res.EpochAtKill = "coord-a", coordA.Epoch()
	before := storeA.ExportState()
	killedAt := clock.Now()

	// --- Kill the leader. No handover, no final flush beyond what
	// every ack already guaranteed.
	active = nil
	if err := repA.Kill(); err != nil {
		return res, err
	}

	// --- The standby hammers the arbiter until the grace passes.
	for !coordB.TryLead() {
		if clock.Now().Sub(killedAt) > time.Hour {
			return res, fmt.Errorf("standby never won the lease")
		}
		clock.Advance(2 * time.Second)
	}
	res.PromotionDelay = clock.Now().Sub(killedAt)
	res.NewLeader, res.NewEpoch = "coord-b", coordB.Epoch()

	// Promotion: final catch-up from the dead leader's log, drain, a log
	// of its own — then, before anything re-arms, the audit against the
	// acked baseline.
	if err := repB.Promote(); err != nil {
		return res, err
	}
	res.LostAcked = invariant.CheckNoLostAcked(before, standby.ExportState())
	repB.Start()
	active = coordB

	// Agents redirect to the surviving endpoint and re-register under
	// the new epoch; their running workloads never stopped.
	for _, ag := range agents {
		ag.Redirect("coord-b")
		if err := joinLocal(ag); err != nil {
			return res, err
		}
	}

	clock.Advance(cfg.PostFailover)
	res.CompletedAfterFailover = standby.CountJobsInState(db.JobCompleted)
	res.LostJobs = cfg.Jobs - len(standby.ListJobs())
	return res, nil
}
