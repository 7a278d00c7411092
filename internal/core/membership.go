package core

import (
	"fmt"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/migration"
)

// Membership: how nodes leave service (announced departure, detected
// loss) and how they come back. Joining is Register, in ingress.go.

// Depart processes an announced departure (scheduled or temporary). The
// agent has already checkpointed and stopped its workloads; the
// coordinator migrates them and updates the node's standing.
func (c *Coordinator) Depart(req api.DepartRequest) error {
	if err := c.fence(req.LeaderEpoch); err != nil {
		return err
	}
	if _, err := c.authy.VerifySubject(req.Token, req.MachineID, c.clock.Now()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return c.HandleDeparture(req.MachineID, req.Reason)
}

// HandleDeparture migrates a departing node's jobs and records its
// standing. It is the convergence point for the announced path (REST or
// in-process notify) — emergency departures are handled by Sweep.
func (c *Coordinator) HandleDeparture(machineID string, reason api.DepartReason) error {
	if err := c.fence(0); err != nil {
		return err
	}
	if _, err := c.db.GetNode(machineID); err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, machineID)
	}
	mreason := migration.ReasonScheduled
	if reason == api.DepartTemporary {
		mreason = migration.ReasonTemporary
	}
	c.hb.Suspend(machineID)
	return c.nodeLeaves(eventbus.Event{Type: eventbus.NodeDeparted, Time: c.clock.Now(), Node: machineID,
		Detail: map[string]any{"reason": string(reason)}}, db.NodeDeparted, mreason)
}

// Departing receives announced departures from in-process agents.
func (c *Coordinator) Departing(machineID string, reason api.DepartReason) {
	_ = c.HandleDeparture(machineID, reason)
}

// Sweep runs one failure-detection pass: nodes silent for the configured
// threshold are marked unreachable and their jobs migrated (emergency
// path). Daemons run this automatically; simulations may call it
// directly.
func (c *Coordinator) Sweep() {
	if !c.Leading() {
		return
	}
	now := c.clock.Now()
	for _, nodeID := range c.hb.Lost(now) {
		_ = c.nodeLeaves(eventbus.Event{Type: eventbus.NodeUnreachable, Time: now, Node: nodeID},
			db.NodeUnreachable, migration.ReasonEmergency)
	}
	c.sweepHealth(now)
}

func (c *Coordinator) scheduleSweep() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.sweeper = c.clock.AfterFunc(c.cfg.HeartbeatInterval, func() {
		c.Sweep()
		c.scheduleSweep()
	})
	c.mu.Unlock()
}

// nodeLeaves takes a node out of service — the one transition behind an
// announced departure (status departed) and a detected loss (status
// unreachable). The record takes the new status, counts the departure,
// banks the uptime of the session that just ended and frees every
// device; the node's ingress state dies with its membership; ev is
// published; and the node's jobs migrate under reason.
//
// The dedup high-water mark is pruned because a returning node
// re-registers, which starts a fresh beat-sequence session — keeping it
// would only leak an entry per churned node. A buffered-but-unflushed
// beat is dropped with it: the record is leaving service, and a
// LastHeartbeat advance on a departed node would contradict the
// departure (on the sweep path the buffered beat predates the silence).
func (c *Coordinator) nodeLeaves(ev eventbus.Event, status db.NodeStatus, reason migration.Reason) error {
	nodeID, now := ev.Node, ev.Time
	err := c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
		n.Status = status
		n.Departures++
		if !n.LastJoin.IsZero() && now.After(n.LastJoin) {
			n.TotalUptime += now.Sub(n.LastJoin)
		}
		for i := range n.GPUs {
			n.GPUs[i].Allocated = false
		}
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	if reason == migration.ReasonTemporary {
		c.temporary[nodeID] = true
	} else {
		delete(c.temporary, nodeID)
	}
	delete(c.beatSeq, nodeID)
	delete(c.beats, nodeID)
	c.mu.Unlock()
	c.bus.Publish(ev)
	c.migrateJobsFrom(nodeID, reason)
	return nil
}

// handleNodeReturn restores a node to service and migrates back the jobs
// that prefer it (§4: 67% of displaced workloads migrated back).
func (c *Coordinator) handleNodeReturn(nodeID string, now time.Time) {
	_ = c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
		if n.Status != db.NodeActive && n.Status != db.NodePaused {
			n.Status = db.NodeActive
		}
		n.LastJoin = now
	})
	c.bus.Publish(eventbus.Event{Type: eventbus.NodeReturned, Time: now, Node: nodeID})
	c.MigrateBack(nodeID)
	c.TrySchedule()
}

// Nodes lists all registered nodes.
func (c *Coordinator) Nodes() []api.NodeSummary {
	recs := c.db.ListNodes()
	out := make([]api.NodeSummary, 0, len(recs))
	for _, n := range recs {
		out = append(out, api.NodeSummary{
			ID: n.ID, Status: n.Status, GPUs: n.GPUs,
			LastHeartbeat: n.LastHeartbeat, Departures: n.Departures,
		})
	}
	return out
}
