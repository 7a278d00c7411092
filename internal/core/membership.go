package core

import (
	"fmt"
	"slices"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/db"
	"gpunion/internal/migration"
	"gpunion/internal/obs"
)

// Membership: how nodes leave service (announced departure, detected
// loss) and what follows their return. Joining, and coming back, is
// Register, in ingress.go.

// Depart processes an announced departure (scheduled or temporary). The
// agent has already checkpointed and stopped its workloads; the
// coordinator migrates them and updates the node's standing. Emergency
// departures are never announced: sweep handles them.
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

// sweep runs one failure-detection pass: nodes silent for the configured
// threshold are marked unreachable and their jobs migrated (emergency
// path). The leader runs it every heartbeat interval on its own clock
// (scheduleSweep).
func (c *Coordinator) sweep() {
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
		c.sweep()
		c.scheduleSweep()
	})
	c.mu.Unlock()
}

// nodeLeaves takes a node out of service — the one transition behind an
// announced departure (status departed) and a detected loss (status
// unreachable). The record takes the new status, counts the departure,
// banks the uptime of the session that just ended and frees every
// device; the session ends with the membership; ev is recorded; and the
// node's jobs migrate under reason.
//
// Ending the session drops everything the coordinator holds for it: the
// agent handle, the failure detector's watch, the dedup high-water mark
// and a buffered-but-unflushed beat. A node out of service comes back
// one way, by registering: its next beat finds no handle and is asked to
// (loadNode), and Register starts a fresh session. A LastHeartbeat
// advance on a departed node would contradict the departure (on the
// sweep path the buffered beat predates the silence).
func (c *Coordinator) nodeLeaves(ev obs.Event, status db.NodeStatus, reason migration.Reason) error {
	nodeID, now := ev.Node, ev.Time
	err := c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
		n.Status = status
		n.ReturnExpected = reason == migration.ReasonTemporary
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
	delete(c.agents, nodeID)
	delete(c.beatSeq, nodeID)
	delete(c.beats, nodeID)
	c.mu.Unlock()
	c.hb.Forget(nodeID)
	c.trace.RecordAt(ev.Time, ev.Kind, "", ev.Node, ev.Detail)
	c.migrateJobsFrom(nodeID, reason)
	return nil
}

// handleNodeReturn follows the registration of a node that was out of
// service.
func (c *Coordinator) handleNodeReturn(nodeID string, now time.Time) {
	c.trace.RecordAt(now, obs.KindNodeReturned, "", nodeID, nil)
	c.migrateBack(nodeID, now)
}

// offerMigrateBack follows the registration of a node still in service,
// as after a coordinator restart or failover: a job it hosts may be
// waiting for it to re-attach before it can go home (migrateBack).
func (c *Coordinator) offerMigrateBack(hostID string, now time.Time) {
	var homes []string
	for _, job := range c.db.JobsOnNode(hostID) {
		if !slices.Contains(homes, job.PreferredNode) {
			homes = append(homes, job.PreferredNode)
		}
	}
	for _, home := range homes {
		c.migrateBack(home, now)
	}
}

// migrateBack moves the stateful batch jobs that prefer nodeID (their
// original home) back onto it, checkpointed at their current host first
// (§4: 67% of displaced workloads migrated back), if it left on a
// temporary departure and is a member again. The return intent lives in
// the node record, so it survives a coordinator restart or failover, and
// stays there until each such job was offered the move: a host without
// a handle yet cannot checkpoint, so its registration offers it later.
func (c *Coordinator) migrateBack(nodeID string, now time.Time) {
	if home, err := c.db.GetNode(nodeID); err != nil || !home.ReturnExpected || c.handle(nodeID) == nil {
		return
	}
	var jobs []db.JobRecord
	waiting := false
	for _, job := range c.db.ListJobs() {
		if job.PreferredNode != nodeID || job.NodeID == nodeID || job.State != db.JobRunning || job.Training == nil {
			continue
		}
		if c.handle(job.NodeID) == nil {
			waiting = true
			continue
		}
		jobs = append(jobs, job)
	}
	if !waiting {
		_ = c.db.UpdateNode(nodeID, func(n *db.NodeRecord) {
			// Only a temporary departure since the read sets it again.
			n.ReturnExpected = n.ReturnExpected && n.Status == db.NodeDeparted
		})
	}
	c.relocateLive(jobs, migration.ReasonMigrateBack, now)
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
