package core

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/wal"
)

// ReplicaConfig assembles one coordinator replica.
type ReplicaConfig struct {
	// Dir is the replica's own WAL directory; empty keeps state in
	// memory only.
	Dir string
	// FollowDir opens the replica as a warm standby tailing the leader's
	// log there; Dir must then be empty (promotion bootstraps it).
	FollowDir string
	// WAL passes through to wal.Open — at OpenReplica, or at promotion
	// for a standby — so a harness keeps its fault-injecting FS,
	// OnAppendError and the semi-synchronous OnDurable hook.
	WAL wal.Config
	// Coordinator configures the coordinator built over the store
	// (Lease and ReplicaID select replicated operation).
	Coordinator Config
	// OnPromote runs once, when the leadership loop has won the lease:
	// after a standby's promotion and before recoverState, with the new
	// epoch or the promotion's error (the replica then stays fenced and
	// lets the lease lapse).
	OnPromote func(epoch uint64, err error)
}

// Replica is the composition root of one coordinator process: the
// store, the write-ahead log that makes it durable (or the follower
// that fills it from a leader's log), and the coordinator serving it.
// The daemon, the simulations and the chaos harness all run this one
// assembly through one lifecycle — OpenReplica, Start (which, in Lease
// mode, is the one leadership loop), then Kill or Close; see
// docs/ARCHITECTURE.md "Replica lifecycle".
type Replica struct {
	cfg   ReplicaConfig
	store db.Store
	coord *Coordinator

	// mu orders the leadership loop (on a timer of the replica's clock)
	// against the leader's shipping Pump and against Kill or Close from
	// the signal handler.
	mu       sync.Mutex
	mgr      *wal.Manager
	follower *wal.Follower
	shipper  *wal.Shipper
	// The loop's armed turn, whether shutdown ended it, and the turns
	// in flight, which shutdown waits for.
	loop  simclock.Timer
	ended bool
	turns sync.WaitGroup
}

// OpenReplica builds a replica over a fresh store: recovered from
// cfg.Dir and logging there from now on, or — with cfg.FollowDir —
// bootstrapped from the leader's snapshot and log as they stand. The
// coordinator exists but recoverState has not run, so the caller can
// inspect the restored state before Start. trace is the coordinator's
// flight recorder, as for New.
func OpenReplica(cfg ReplicaConfig, clock simclock.Clock, ckpts *checkpoint.Store, trace *obs.Recorder) (*Replica, error) {
	r := &Replica{cfg: cfg, store: db.New(0)}
	switch {
	case cfg.FollowDir != "":
		// A standby's store is built from the leader's log; its own
		// directory is bootstrapped at promotion and must not hold a
		// stale previous term.
		if cfg.Dir == "" {
			return nil, errors.New("core: a standby needs a WAL directory of its own to promote into")
		}
		if entries, err := os.ReadDir(cfg.Dir); err == nil && len(entries) > 0 {
			return nil, fmt.Errorf("core: a standby needs an empty WAL directory, but %s has %d entries (a stale log cannot be joined to a shipped store)", cfg.Dir, len(entries))
		}
		if _, err := wal.Recover(cfg.FollowDir, r.store); err != nil {
			return nil, fmt.Errorf("core: standby bootstrap from %s: %w", cfg.FollowDir, err)
		}
		r.follower = wal.NewFollower(r.store)
		r.shipper = wal.NewShipper(cfg.FollowDir)
	case cfg.Dir != "":
		mgr, err := wal.Open(cfg.Dir, r.store, cfg.WAL)
		if err != nil {
			return nil, err
		}
		r.mgr = mgr
	}
	coord, err := New(cfg.Coordinator, clock, r.store, ckpts, trace)
	if err != nil {
		if r.mgr != nil {
			_ = r.mgr.Close()
		}
		return nil, err
	}
	r.coord = coord
	if r.mgr != nil {
		// Append/fsync latency, group sizes and rotations land on the
		// coordinator's registry.
		_ = r.mgr.Writer().Instrument(coord.Metrics())
	}
	return r, nil
}

// Store returns the replica's database.
func (r *Replica) Store() db.Store { return r.store }

// Coordinator returns the coordinator serving the store. In lease mode
// it fences every mutation with api.ErrNotLeader until the leadership
// loop has won the lease, promoted and recovered.
func (r *Replica) Coordinator() *Coordinator { return r.coord }

// WAL returns the manager of the replica's own log: nil without one,
// for a standby before promotion, and after Kill or Close.
func (r *Replica) WAL() *wal.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr
}

// Start puts the replica in service. A standalone replica recovers
// (recoverState) and serves. In Lease mode Start is the leadership loop:
// a turn now and every TTL/2 on the replica's clock until the replica
// leads (a step-down is permanent) or shuts down. A turn pumps and tries
// the lease; the one that wins promotes a standby, runs OnPromote,
// recovers, and only then admits writes.
func (r *Replica) Start() {
	if r.cfg.Coordinator.Lease == nil {
		r.coord.recoverState()
		return
	}
	r.turns.Add(1)
	r.turn()
}

// turn is one turn of the leadership loop, counted in r.turns.
func (r *Replica) turn() {
	defer r.turns.Done()
	_ = r.Pump() // a tailing error shows again in promote's catch-up
	if !r.coord.acquire() {
		r.mu.Lock()
		if !r.ended {
			r.turns.Add(1)
			r.loop = r.coord.clock.AfterFunc(r.cfg.Coordinator.Lease.TTL()/2, r.turn)
		}
		r.mu.Unlock()
		return
	}
	err := r.promote()
	if r.cfg.OnPromote != nil {
		r.cfg.OnPromote(r.coord.Epoch(), err)
	}
	if err != nil {
		r.coord.stepDown("promotion failed")
		return
	}
	r.coord.recoverState()
	r.coord.admit()
}

// Pump applies what the leader logged since the last call (nothing,
// once the replica is no longer a standby).
func (r *Replica) Pump() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.follower == nil {
		return nil
	}
	return r.follower.Pump(r.shipper)
}

// Lag reports a standby's backlog against the leader's current LSN:
// records not yet applied and log bytes not yet consumed (best effort —
// a concurrent truncation reads as zero).
func (r *Replica) Lag(leaderLSN uint64) (records uint64, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.follower == nil {
		return 0, 0
	}
	if applied := r.follower.AppliedLSN(); leaderLSN > applied {
		records = leaderLSN - applied
	}
	if n, err := r.shipper.LagBytes(); err == nil {
		bytes = n
	}
	return records, bytes
}

// promote gives a standby that has just won the lease a log of its own:
// a final catch-up from the old leader's log (the grant fenced it, so
// the log is final), a drain of the reorder buffer (an LSN hole is a
// record that never became durable), a fresh log in cfg.Dir, and a
// checkpoint so that directory alone recovers the inherited state. Any
// failure aborts — a replica that cannot prove it holds every acked
// mutation must not serve. A replica that is no standby has its own
// log already.
func (r *Replica) promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.follower == nil {
		return nil
	}
	if err := r.follower.Pump(r.shipper); err != nil {
		return fmt.Errorf("core: promotion catch-up: %w", err)
	}
	if _, err := r.follower.Drain(); err != nil {
		return fmt.Errorf("core: promotion drain: %w", err)
	}
	mgr, err := wal.Open(r.cfg.Dir, r.store, r.cfg.WAL)
	if err != nil {
		return fmt.Errorf("core: promotion: opening own log: %w", err)
	}
	_ = mgr.Writer().Instrument(r.coord.Metrics())
	if err := mgr.Checkpoint(); err != nil {
		_ = mgr.Close()
		return fmt.Errorf("core: promotion checkpoint: %w", err)
	}
	r.mgr, r.follower, r.shipper = mgr, nil, nil
	return nil
}

// Kill stops the coordinator and closes the log with no final
// checkpoint: a successor recovers exactly what fsync guaranteed (and
// waits out the lease).
func (r *Replica) Kill() error { return r.shutdown(false) }

// Close also checkpoints, so the next boot replays an empty tail (the
// log already holds everything if the checkpoint fails mid-write), then
// releases the lease: a standby's next turn wins it.
func (r *Replica) Close() error { return r.shutdown(true) }

func (r *Replica) shutdown(clean bool) error {
	r.coord.Stop()
	r.mu.Lock()
	r.ended = true
	if r.loop != nil && r.loop.Stop() {
		r.turns.Done() // the armed turn will never run
	}
	r.mu.Unlock()
	r.turns.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	mgr := r.mgr
	r.mgr, r.follower, r.shipper = nil, nil, nil
	var errs []error
	if mgr != nil {
		if clean {
			errs = append(errs, mgr.Checkpoint())
		}
		errs = append(errs, mgr.Close())
	}
	if lease := r.cfg.Coordinator.Lease; clean && lease != nil {
		// Best effort: a lease left held lapses on its own.
		_ = lease.Release(r.cfg.Coordinator.ReplicaID, r.coord.Epoch())
	}
	return errors.Join(errs...)
}
