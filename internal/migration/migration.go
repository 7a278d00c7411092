// Package migration implements GPUnion's resilient-execution mechanism
// (§3.5): when a provider departs — gracefully, silently, or temporarily
// — the workloads it hosted are relaunched elsewhere from their latest
// application-level checkpoints; stateless work is simply requeued.
// When a temporarily-departed provider returns, displaced workloads can
// be migrated back to their original node.
//
// The package separates planning (pure decision: target node, restore
// point, bytes to move) from execution (the coordinator drives agents),
// and keeps the per-scenario statistics that reproduce the paper's
// Fig. 3.
package migration

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/netsim"
	"gpunion/internal/scheduler"
)

// Reason classifies why a migration happened, matching the paper's three
// interruption scenarios plus the migrate-back path.
type Reason string

// Migration reasons.
const (
	ReasonScheduled   Reason = "scheduled" // graceful provider shutdown
	ReasonEmergency   Reason = "emergency" // heartbeat loss
	ReasonTemporary   Reason = "temporary" // provider pause with return intent
	ReasonMigrateBack Reason = "migrate-back"
	// ReasonPredictive is a checkpoint-then-migrate drain off a node
	// whose health score crossed the unhealthy threshold: the node is
	// still alive, so the job checkpoints in place before moving — no
	// work is lost, unlike the emergency path.
	ReasonPredictive Reason = "predictive"
)

// ErrNoTarget is returned when no node can host the displaced job.
var ErrNoTarget = errors.New("migration: no compatible target node")

// Plan is a computed migration decision, ready for execution.
type Plan struct {
	JobID string
	// From is the node the job is leaving (may be gone already).
	From string
	// Placement is the chosen target.
	Placement scheduler.Placement
	// HasCheckpoint reports whether state is being restored; stateless
	// jobs restart from step 0.
	HasCheckpoint bool
	// RestoreSeq / RestoreStep locate the resume point.
	RestoreSeq  int
	RestoreStep int64
	// TransferBytes is the restore-chain payload that must move to the
	// target node.
	TransferBytes int64
	// TransferTime is the modelled LAN transfer duration (zero without
	// a network model).
	TransferTime time.Duration
	Reason       Reason
}

// Engine plans migrations and accumulates outcome statistics.
type Engine struct {
	sched *scheduler.Scheduler
	// store is where targets come from: every plan places against its
	// active nodes through the scheduler's one entry.
	store db.Store
	ckpts *checkpoint.Store
	// net and storageNode model the LAN transfer of checkpoint data
	// from the storage location to the target; both optional.
	net         *netsim.Network
	storageNode string

	stats Stats
	mu    sync.Mutex
}

// New creates an engine planning onto store's nodes. net may be nil (no
// transfer-time modelling); storageNode names the netsim node holding
// checkpoint data.
func New(sched *scheduler.Scheduler, store db.Store, ckpts *checkpoint.Store, net *netsim.Network, storageNode string) *Engine {
	return &Engine{
		sched:       sched,
		store:       store,
		ckpts:       ckpts,
		net:         net,
		storageNode: storageNode,
		stats:       newStats(),
	}
}

// fillRestorePoint resolves the job's restore chain once and derives
// both the resume point (the chain head) and the transfer size (the
// chain's byte total) from it — one verification walk, not the two that
// a Latest call and a second chain walk would cost. No restorable chain
// means a stateless restart.
func (e *Engine) fillRestorePoint(p *Plan) {
	chain, err := e.ckpts.RestoreChain(p.JobID)
	if err != nil || len(chain) == 0 {
		return
	}
	head := chain[len(chain)-1]
	p.HasCheckpoint = true
	p.RestoreSeq = head.Seq
	p.RestoreStep = head.Progress.Step
	for _, ck := range chain {
		p.TransferBytes += ck.Bytes
	}
}

// BatchItem is one job's outcome within a PlanBatch call.
type BatchItem struct {
	Plan Plan
	Err  error
}

// PlanBatch plans migrations for all jobs displaced by one event with
// one scheduler cycle over the store's current nodes, so (i) two jobs
// never land on the same free device — the cycle's reservations see to
// that — and (ii) the restore transfers overlap on the network model:
// concurrent migrations contend for link bandwidth, the effect that
// produces the heavy tail in migration downtime. A job's current node
// (which may still be in the store) is excluded via AvoidNodes, except
// on migrate-back, where the original node is preferred instead.
func (e *Engine) PlanBatch(jobs []db.JobRecord, reason Reason, now time.Time) []BatchItem {
	reqs := make([]scheduler.Request, len(jobs))
	for i, job := range jobs {
		reqs[i] = scheduler.Request{
			JobID:       job.ID,
			GPUMemMiB:   job.GPUMemMiB,
			Capability:  gpu.ComputeCapability{Major: job.CapabilityMajor, Minor: job.CapabilityMinor},
			Priority:    job.Priority,
			LongRunning: true,
		}
		if reason == ReasonMigrateBack {
			reqs[i].PreferNode = job.PreferredNode
		} else {
			reqs[i].AvoidNodes = []string{job.NodeID}
		}
	}
	results := e.sched.Place(reqs, e.store, now)

	out := make([]BatchItem, len(jobs))
	var flows []*netsim.Flow
	flowIdx := make([]int, 0, len(jobs))
	for i, job := range jobs {
		if err := results[i].Err; err != nil {
			out[i] = BatchItem{Err: fmt.Errorf("%w: job %s (%v)", ErrNoTarget, job.ID, err)}
			continue
		}
		p := Plan{JobID: job.ID, From: job.NodeID, Reason: reason, Placement: results[i].Placement}
		e.fillRestorePoint(&p)
		out[i] = BatchItem{Plan: p}
		if e.net != nil && p.TransferBytes > 0 && e.storageNode != "" {
			f, ferr := e.net.StartFlow(e.storageNode, p.Placement.NodeID, p.TransferBytes,
				netsim.TrafficMigration, now)
			if ferr == nil {
				flows = append(flows, f)
				flowIdx = append(flowIdx, i)
			}
		}
	}

	// All flows of the event overlap: durations reflect shared links.
	for k, f := range flows {
		d := f.Duration()
		out[flowIdx[k]].Plan.TransferTime = d
		_ = e.net.FinishFlow(f, now.Add(d))
	}
	return out
}

// Stats returns a snapshot of accumulated outcomes.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats.clone()
}

// RecordAttempt notes that a migration was initiated.
func (e *Engine) RecordAttempt(reason Reason) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Attempts[reason]++
}

// RecordSuccess notes a completed migration with the downtime until the
// job ran again.
func (e *Engine) RecordSuccess(reason Reason, downtime time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Successes[reason]++
	e.stats.Downtime[reason] += downtime
	e.stats.downtimes[reason] = append(e.stats.downtimes[reason], downtime)
}

// RecordFailure notes a migration that could not complete (no target).
func (e *Engine) RecordFailure(reason Reason) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Failures[reason]++
}

// Stats aggregates migration outcomes per reason — the data behind the
// paper's Fig. 3.
type Stats struct {
	Attempts  map[Reason]int
	Successes map[Reason]int
	Failures  map[Reason]int
	// Downtime is the cumulative out-of-service time.
	Downtime  map[Reason]time.Duration
	downtimes map[Reason][]time.Duration
}

func newStats() Stats {
	return Stats{
		Attempts:  make(map[Reason]int),
		Successes: make(map[Reason]int),
		Failures:  make(map[Reason]int),
		Downtime:  make(map[Reason]time.Duration),
		downtimes: make(map[Reason][]time.Duration),
	}
}

func (s Stats) clone() Stats {
	out := newStats()
	for k, v := range s.Attempts {
		out.Attempts[k] = v
	}
	for k, v := range s.Successes {
		out.Successes[k] = v
	}
	for k, v := range s.Failures {
		out.Failures[k] = v
	}
	for k, v := range s.Downtime {
		out.Downtime[k] = v
	}
	for k, v := range s.downtimes {
		out.downtimes[k] = append([]time.Duration(nil), v...)
	}
	return out
}

// MeanDowntime returns the average downtime for a reason.
func (s Stats) MeanDowntime(reason Reason) time.Duration {
	n := s.Successes[reason]
	if n == 0 {
		return 0
	}
	return s.Downtime[reason] / time.Duration(n)
}

// RateWithin returns the fraction of attempted migrations of the reason
// that completed with downtime at most d. Failed migrations count
// against the rate — this is the paper's "successfully migrated within
// the specified time" metric.
func (s Stats) RateWithin(reason Reason, d time.Duration) float64 {
	attempts := s.Attempts[reason]
	if attempts == 0 {
		return 0
	}
	within := 0
	for _, dt := range s.downtimes[reason] {
		if dt <= d {
			within++
		}
	}
	return float64(within) / float64(attempts)
}
