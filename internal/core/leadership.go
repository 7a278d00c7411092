package core

import (
	"errors"
	"strconv"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/obs"
)

// Leadership (Lease mode): the epoch, the cached grant and its renewal
// loop, step-down, and the fence every mutating entry point passes
// first. Standalone coordinators (no Lease) always lead at epoch zero.

// Epoch returns the coordinator's current leader epoch (zero in
// standalone mode or before the first grant).
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Leading reports whether this replica may act: not stopped and, in
// Lease mode, holding a grant that is still live on its own clock.
// Standalone coordinators lead until stopped. Deferred work (sweeps,
// scheduling cycles, migration-transfer timers) checks it before
// touching agents or the store.
func (c *Coordinator) Leading() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leadingLocked()
}

// leadingLocked evaluates leadership under c.mu: standalone mode always
// leads; in Lease mode the replica must be admitted and the cached
// grant must not have passed on the local clock — the self-fence that
// stops a zombie whose lease client is cut (it cannot hear
// ErrLeaseLost, but it can read its own watch).
func (c *Coordinator) leadingLocked() bool {
	if c.cfg.Lease == nil {
		return !c.stopped
	}
	return !c.stopped && c.leading && c.admitted && c.clock.Now().Before(c.leaseUntil)
}

// TryLead acquires the lease and starts leading at once (acquire, then
// admit). No-op returning true in standalone mode. A Replica's
// leadership loop promotes and recovers between the two steps instead.
func (c *Coordinator) TryLead() bool { return c.cfg.Lease == nil || c.acquire() && c.admit() }

// acquire takes the lease and keeps it renewed; the fence stays closed.
func (c *Coordinator) acquire() bool {
	epoch, until, err := c.cfg.Lease.Acquire(c.cfg.ReplicaID)
	if err != nil {
		return false
	}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return false
	}
	c.epoch = epoch
	c.leaseUntil = until
	c.leading = true
	c.mu.Unlock()
	c.met.leaderChanges.Inc()
	c.trace.RecordAt(c.clock.Now(), obs.KindLeaderElected, "", c.cfg.ReplicaID,
		map[string]string{"epoch": strconv.FormatUint(epoch, 10)})
	c.scheduleRenew()
	return true
}

// admit opens the fence while the lease is held: from here on the
// replica serves mutations, sweeps, and places what its queue holds.
func (c *Coordinator) admit() bool {
	c.mu.Lock()
	c.admitted = c.leading && !c.stopped
	ok := c.admitted
	c.mu.Unlock()
	if ok {
		c.scheduleSweep()
		c.trySchedule()
	}
	return ok
}

// scheduleRenew arms the next lease renewal at a third of the remaining
// grant, so two renewals can fail before the lease lapses.
func (c *Coordinator) scheduleRenew() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped || !c.leading {
		return
	}
	d := c.leaseUntil.Sub(c.clock.Now()) / 3
	if d <= 0 {
		d = time.Millisecond
	}
	c.renewTimer = c.clock.AfterFunc(d, c.renewLease)
}

// renewLease extends the grant or steps down. A transport failure is
// not a demotion by itself — the replica keeps serving while its cached
// grant is live and retries — but once the grant passes on the local
// clock without a successful renewal, the replica self-fences: the
// arbiter's re-grant grace (skew tolerance) guarantees no successor
// exists before that moment.
func (c *Coordinator) renewLease() {
	c.mu.Lock()
	if c.stopped || !c.leading {
		c.mu.Unlock()
		return
	}
	holder, epoch := c.cfg.ReplicaID, c.epoch
	c.mu.Unlock()
	until, err := c.cfg.Lease.Renew(holder, epoch)
	if err != nil {
		if errors.Is(err, ErrLeaseLost) {
			c.stepDown("lease lost")
			return
		}
		c.mu.Lock()
		live := c.clock.Now().Before(c.leaseUntil)
		c.mu.Unlock()
		if !live {
			c.stepDown("lease expired unrenewed")
			return
		}
		c.scheduleRenew()
		return
	}
	c.mu.Lock()
	c.leaseUntil = until
	c.mu.Unlock()
	c.scheduleRenew()
}

// stepDown demotes a leader in place. The demotion is permanent for
// this instance: its store may have diverged from the new leader's
// during the overlap, so rejoining the replica group requires a fresh
// standby bootstrap from the new leader's log, not a re-acquire.
func (c *Coordinator) stepDown(reason string) {
	c.mu.Lock()
	if !c.leading {
		c.mu.Unlock()
		return
	}
	c.leading = false
	if c.sweeper != nil {
		c.sweeper.Stop()
	}
	if c.renewTimer != nil {
		c.renewTimer.Stop()
	}
	epoch := c.epoch
	c.mu.Unlock()
	c.met.leaderChanges.Inc()
	c.trace.RecordAt(c.clock.Now(), obs.KindLeaderDeposed, "", c.cfg.ReplicaID,
		map[string]string{"epoch": strconv.FormatUint(epoch, 10), "reason": reason})
}

// fence gates one mutating request. reqEpoch is the envelope epoch the
// caller presented (zero = legacy/no epoch). It returns a typed
// api.ErrNotLeader when this replica must not serve the request: it is
// a standby, its lease lapsed, or the request proves a newer leader
// exists (in which case the replica steps down first — the epoch
// comparison is the PR-3 stopped-coordinator fence generalized to
// terms). Nil in standalone mode.
func (c *Coordinator) fence(reqEpoch uint64) error {
	if c.cfg.Lease == nil {
		return nil
	}
	c.mu.Lock()
	if reqEpoch > c.epoch {
		c.mu.Unlock()
		c.stepDown("superseded by higher epoch")
		c.mu.Lock()
	}
	ok := c.leadingLocked()
	epoch := c.epoch
	c.mu.Unlock()
	if ok {
		return nil
	}
	if arbiterEpoch := c.cfg.Lease.Epoch(); arbiterEpoch > epoch {
		epoch = arbiterEpoch
	}
	// A fenced write is the end of a failover span: the first one after
	// a step-down proves the old leader can no longer mutate state.
	c.met.fencedWrites.Inc()
	c.trace.Record(obs.KindWriteFenced, "", c.cfg.ReplicaID, map[string]string{
		"req_epoch":   strconv.FormatUint(reqEpoch, 10),
		"local_epoch": strconv.FormatUint(epoch, 10),
	})
	return api.ErrNotLeader{Epoch: epoch}
}

// envelope stamps outgoing coordinator→agent requests with the current
// protocol version and leader epoch.
func (c *Coordinator) envelope() api.Envelope {
	return api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: c.Epoch()}
}
