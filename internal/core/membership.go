package core

import (
	"fmt"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/migration"
	"gpunion/internal/obs"
)

// Membership: how nodes leave service (announced departure, detected
// loss) and how they come back. Joining is Register, in ingress.go.

// Depart processes an announced departure (scheduled or temporary). The
// agent has already checkpointed and stopped its workloads; the
// coordinator migrates them and updates the node's standing. Emergency
// departures are never announced: Sweep handles them.
func (c *Coordinator) Depart(req api.DepartRequest) error {
	if err := c.admitAgent(req.LeaderEpoch, req.Token, req.MachineID); err != nil {
		return err
	}
	if _, err := c.db.GetNode(req.MachineID); err != nil {
		return fmt.Errorf("%w: %s", ErrUnknownNode, req.MachineID)
	}
	mreason := migration.ReasonScheduled
	if req.Reason == api.DepartTemporary {
		mreason = migration.ReasonTemporary
	}
	c.hb.Suspend(req.MachineID)
	return c.nodeLeaves(obs.Event{Kind: obs.KindNodeDeparted, Time: c.clock.Now(), Node: req.MachineID,
		Detail: map[string]string{"reason": string(req.Reason)}}, db.NodeDeparted, mreason)
}

// admitAgent is the gate an agent's departure notice and job report
// pass: the fence on the request's leader epoch, then the sending
// node's own credential.
func (c *Coordinator) admitAgent(epoch uint64, token, machineID string) error {
	if err := c.fence(epoch); err != nil {
		return err
	}
	if _, err := c.authy.VerifySubject(token, machineID, c.clock.Now()); err != nil {
		return fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return nil
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
		_ = c.nodeLeaves(obs.Event{Kind: obs.KindNodeUnreachable, Time: now, Node: nodeID},
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
// recorded; and the node's jobs migrate under reason.
//
// The dedup high-water mark is pruned because a returning node
// re-registers, which starts a fresh beat-sequence session — keeping it
// would only leak an entry per churned node. A buffered-but-unflushed
// beat is dropped with it: the record is leaving service, and a
// LastHeartbeat advance on a departed node would contradict the
// departure (on the sweep path the buffered beat predates the silence).
func (c *Coordinator) nodeLeaves(ev obs.Event, status db.NodeStatus, reason migration.Reason) error {
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
	c.trace.RecordAt(ev.Time, ev.Kind, "", ev.Node, ev.Detail)
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
	c.trace.RecordAt(now, obs.KindNodeReturned, "", nodeID, nil)
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
