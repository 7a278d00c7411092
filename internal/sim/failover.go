package sim

import (
	"errors"
	"fmt"
	"os"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/wal"
	"gpunion/internal/workload"
)

// The scripted leader-handoff scenario's fixed shape.
const (
	// failoverNodes is how many 2×RTX3090 provider nodes join.
	failoverNodes = 4
	// failoverJobs is how many training jobs are submitted before the
	// kill: more than the fleet holds, so a pending tail rides through
	// the handoff.
	failoverJobs = 12
	// postFailover is how long the simulation runs after the standby
	// takes over: enough for every SmallCNN to finish.
	postFailover = 4 * time.Hour
)

// FailoverResult is what the scenario measured.
type FailoverResult struct {
	SubmittedJobs int
	PendingAtKill int
	RunningAtKill int
	LeaderAtKill  string
	EpochAtKill   uint64
	// StandbyRejectedBeforePromotion records that the warm standby
	// fenced a submission with api.ErrNotLeader while the leader was
	// alive.
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
// leader is killed without warning; the standby's leadership loop takes
// the lease once the dead grant plus the skew grace runs out, promotes
// (drains the shipped log; the audit checks nothing acked was lost) and
// recovers, and the fleet finds it on its own beats, re-registers under
// the new epoch and finishes the inherited work.
func RunFailover() (FailoverResult, error) {
	var res FailoverResult
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

	w := NewWorld(Epoch)
	lease := core.NewLease(core.NewMemLeaseStore(), w.Clock, 30*time.Second, 2*time.Minute)

	// Two replicas of one assembly: the leader logs to dirA, the warm
	// standby applies the shipped stream and fences until promoted.
	var repA, repB *core.Replica
	repA, err = openScripted(w, "coord-a", core.ReplicaConfig{Dir: dirA,
		// Semi-synchronous shipping: runs after the record is durable and
		// before the store acks, so acked implies on-standby.
		WAL:         wal.Config{OnDurable: func(db.Mutation) { _ = repB.Pump() }},
		Coordinator: core.Config{Lease: lease, ReplicaID: "coord-a"}})
	if err != nil {
		return res, err
	}
	var before db.State
	var killedAt time.Time
	promoteErr := errors.New("standby never promoted")
	repB, err = openScripted(w, "coord-b", core.ReplicaConfig{Dir: dirB, FollowDir: dirA,
		Coordinator: core.Config{Lease: lease, ReplicaID: "coord-b"},
		// After the promotion and before recoverState: the audit against
		// the acked baseline the kill left.
		OnPromote: func(epoch uint64, err error) {
			if promoteErr = err; err != nil {
				return
			}
			res.PromotionDelay = w.Clock.Now().Sub(killedAt)
			res.NewLeader, res.NewEpoch = "coord-b", epoch
			res.LostAcked = invariant.CheckNoLostAcked(before, repB.Store().ExportState())
		}})
	if err != nil {
		return res, err
	}
	defer repB.Kill()
	coordA, storeA := repA.Coordinator(), repA.Store()
	coordB, standby := repB.Coordinator(), repB.Store()
	repA.Start()
	if !coordA.Leading() {
		return res, fmt.Errorf("coord-a failed to take the free lease")
	}
	repB.Start()

	// The agents learn both replicas up front; a leader change is a
	// redirect, not a reconfiguration. A job report the dead leader does
	// not answer stays with its agent, which re-sends it after its next
	// answered beat.
	if err := bootFleet(w, failoverNodes, "coord-a", "coord-b"); err != nil {
		return res, err
	}
	if err := submitTraining(coordA, failoverJobs); err != nil {
		return res, err
	}
	res.SubmittedJobs = failoverJobs
	w.Clock.Advance(15 * time.Minute)

	// The standby fences while the leader lives.
	_, err = coordB.SubmitJob(TrainingJobSubmission("user-x", workload.SmallCNN, 5*time.Minute))
	res.StandbyRejectedBeforePromotion = errors.As(err, new(api.ErrNotLeader))

	res.PendingAtKill = storeA.CountJobsInState(db.JobPending)
	res.RunningAtKill = storeA.CountJobsInState(db.JobRunning)
	res.LeaderAtKill, res.EpochAtKill = "coord-a", coordA.Epoch()
	before = storeA.ExportState()
	killedAt = w.Clock.Now()

	// --- Kill the leader. No handover, no final flush beyond what
	// every ack already guaranteed; its address goes dark.
	w.Hosts.Serve("coord-a", nil)
	if err := repA.Kill(); err != nil {
		return res, err
	}

	w.Clock.Advance(postFailover)
	if promoteErr != nil {
		return res, promoteErr
	}
	res.CompletedAfterFailover = standby.CountJobsInState(db.JobCompleted)
	res.LostJobs = failoverJobs - len(standby.ListJobs())
	return res, nil
}
