package core

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/simclock"
	"gpunion/internal/wal"
)

// ReplicaConfig assembles one coordinator replica.
type ReplicaConfig struct {
	// Dir is the replica's own WAL directory; empty keeps state in
	// memory only.
	Dir string
	// FollowDir opens the replica as a warm standby tailing the leader's
	// log there; Dir must then be empty (Promote bootstraps it).
	FollowDir string
	// WAL passes through to wal.Open — at OpenReplica, or at Promote for
	// a standby — so a harness keeps its fault-injecting FS,
	// OnAppendError and the semi-synchronous OnDurable hook.
	WAL wal.Config
	// Coordinator configures the coordinator built over the store
	// (Lease and ReplicaID select replicated operation).
	Coordinator Config
}

// Replica is the composition root of one coordinator process: the
// store, the write-ahead log that makes it durable (or the follower
// that fills it from a leader's log), and the coordinator serving it.
// The daemon, the simulations and the chaos harness all run this one
// assembly through one lifecycle — OpenReplica, Start, and for a
// standby Pump and Promote, then Kill or Close; see
// docs/ARCHITECTURE.md "Replica lifecycle".
type Replica struct {
	cfg   ReplicaConfig
	store db.Store
	coord *Coordinator

	// mu orders Promote (the daemon runs it on its standby goroutine)
	// against Pump and against Close from the signal handler.
	mu       sync.Mutex
	mgr      *wal.Manager
	follower *wal.Follower
	shipper  *wal.Shipper
}

// OpenReplica builds a replica over a fresh store: recovered from
// cfg.Dir and logging there from now on, or — with cfg.FollowDir —
// bootstrapped from the leader's snapshot and log as they stand. The
// coordinator exists but RecoverState has not run, so the caller can
// inspect the restored state before Start.
func OpenReplica(cfg ReplicaConfig, clock simclock.Clock, ckpts *checkpoint.Store, bus *eventbus.Bus) (*Replica, error) {
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
	coord, err := New(cfg.Coordinator, clock, r.store, ckpts, bus)
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
// it fences every mutation with api.ErrNotLeader until it wins the
// lease (TryLead).
func (r *Replica) Coordinator() *Coordinator { return r.coord }

// WAL returns the manager of the replica's own log: nil without one,
// for a standby before Promote, and after Kill or Close.
func (r *Replica) WAL() *wal.Manager {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mgr
}

// Start is the one call site of RecoverState: it re-arms the
// coordinator around whatever OpenReplica or Promote restored.
func (r *Replica) Start() { r.coord.RecoverState() }

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

// Promote gives a standby that has just won the lease a log of its own:
// a final catch-up from the old leader's log (the grant fenced it, so
// the log is final), a drain of the reorder buffer (an LSN hole is a
// record that never became durable), a fresh log in cfg.Dir, and a
// checkpoint so that directory alone recovers the inherited state. Any
// failure aborts — a replica that cannot prove it holds every acked
// mutation must not serve. Nothing is re-armed yet: call Start.
func (r *Replica) Promote() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.follower == nil {
		return errors.New("core: Promote on a replica that is not a standby")
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
// checkpoint: a successor recovers exactly what fsync guaranteed.
func (r *Replica) Kill() error { return r.shutdown(false) }

// Close also checkpoints, so the next boot replays an empty tail (the
// log already holds everything if the checkpoint fails mid-write).
func (r *Replica) Close() error { return r.shutdown(true) }

func (r *Replica) shutdown(checkpoint bool) error {
	r.coord.Stop()
	r.mu.Lock()
	defer r.mu.Unlock()
	mgr := r.mgr
	r.mgr, r.follower, r.shipper = nil, nil, nil
	if mgr == nil {
		return nil
	}
	var ckptErr error
	if checkpoint {
		ckptErr = mgr.Checkpoint()
	}
	return errors.Join(ckptErr, mgr.Close())
}
