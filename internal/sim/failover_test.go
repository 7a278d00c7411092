package sim

import (
	"fmt"
	"testing"
	"time"

	"gpunion/internal/chaos"
	"gpunion/internal/db"
	"gpunion/internal/wal"

	"gpunion/internal/invariant"
)

// TestFailoverLeaderHandoff: the scripted replication demo. The standby
// fences while the leader lives, the kill leaves the slot vacant for
// the dead grant plus the skew grace, the promotion loses nothing that
// was acked, and the fleet finishes the inherited queue under the new
// epoch.
func TestFailoverLeaderHandoff(t *testing.T) {
	res, err := RunFailover()
	if err != nil {
		t.Fatal(err)
	}
	if !res.StandbyRejectedBeforePromotion {
		t.Error("standby accepted (or mis-hinted) a submission while the leader was alive")
	}
	if res.EpochAtKill != 1 || res.NewEpoch != 2 {
		t.Errorf("epochs: kill=%d new=%d, want 1→2", res.EpochAtKill, res.NewEpoch)
	}
	// The slot must stay vacant for the remaining grant plus the 2 min
	// skew-tolerance grace — but not much longer.
	if res.PromotionDelay < 2*time.Minute || res.PromotionDelay > 3*time.Minute {
		t.Errorf("promotion delay %v, want within (2m, 3m]", res.PromotionDelay)
	}
	for _, v := range res.LostAcked {
		t.Errorf("lost acked mutation: %s", v)
	}
	if res.RunningAtKill == 0 || res.PendingAtKill == 0 {
		t.Errorf("kill hit a dull moment: running=%d pending=%d", res.RunningAtKill, res.PendingAtKill)
	}
	if res.LostJobs != 0 {
		t.Errorf("%d job(s) vanished across the handoff", res.LostJobs)
	}
	if res.CompletedAfterFailover != res.SubmittedJobs {
		t.Errorf("completed %d of %d after failover", res.CompletedAfterFailover, res.SubmittedJobs)
	}
	checkGolden(t, "failover", res)
}

// TestChaosLeaderFailover: unannounced leader kills under churn on the
// replicated pair. Every promotion must pass the zero-lost-acked audit
// and the leadership-protocol audits, and the platform must keep
// completing work.
func TestChaosLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a replicated campus day")
	}
	res, err := runGoldenSchedule("leader-failover")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindLeaderKill] == 0 {
		t.Errorf("no leader kills executed: %v", res.Report.Executed)
	}
	if res.Failovers == 0 {
		t.Error("no standby promotion completed")
	}
	t.Logf("failovers=%d", res.Failovers)
}

// TestChaosSplitBrain: the serving leader isolated from the arbiter
// with a skewed clock while a rival races it. Zero violations means
// every window resolved correctly — short ones with the original
// leader resuming, long ones with a fenced zombie and a clean handoff.
func TestChaosSplitBrain(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a replicated campus day")
	}
	res, err := runGoldenSchedule("split-brain")
	requireClean(t, res, err)
	if res.Report.Executed[chaos.KindSplitBrain] == 0 {
		t.Errorf("no split-brain windows executed: %v", res.Report.Executed)
	}
	t.Logf("failovers=%d", res.Failovers)
}

// TestFailoverAuditDetectsDroppedRecord sabotages the shipping path —
// one durable, acknowledged record silently never reaches the standby —
// and proves the zero-lost-acked audit catches exactly that at
// promotion time. This is the test of the test: a detector that stays
// green under sabotage detects nothing.
func TestFailoverAuditDetectsDroppedRecord(t *testing.T) {
	dir := t.TempDir()
	leader := db.New(0)
	standby := db.New(0)
	follower := wal.NewFollower(standby)
	shipper := wal.NewShipper(dir)

	const sabotaged = 5 // the LSN the broken shipper drops
	mgr, err := wal.Open(dir, leader, wal.Config{
		OnDurable: func(db.Mutation) {
			recs, err := shipper.Poll()
			if err != nil {
				t.Fatal(err)
			}
			kept := recs[:0]
			for _, m := range recs {
				if m.LSN == sabotaged {
					continue // the sabotage: acked upstream, never shipped
				}
				kept = append(kept, m)
			}
			if err := follower.Offer(kept); err != nil {
				t.Fatal(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()

	for i := 1; i <= 8; i++ {
		leader.UpsertNode(db.NodeRecord{ID: fmt.Sprintf("node-%02d", i), Status: db.NodeActive})
	}

	// Promotion: drain applies around the hole (it cannot wait for a
	// record that will never arrive), then the audit runs.
	if _, err := follower.Drain(); err != nil {
		t.Fatal(err)
	}
	vs := invariant.CheckNoLostAcked(leader.ExportState(), standby.ExportState())
	if len(vs) == 0 {
		t.Fatal("audit stayed green although an acked record never reached the standby")
	}
	found := false
	for _, v := range vs {
		if v.Rule != "zero-lost-acked-mutations" {
			t.Errorf("unexpected rule %q: %s", v.Rule, v)
		} else {
			found = true
		}
	}
	if !found {
		t.Fatal("no zero-lost-acked-mutations violation reported")
	}

	// Control: with the sabotage healed (full resync), the audit passes.
	if err := follower.Resync(dir); err != nil {
		t.Fatal(err)
	}
	if vs := invariant.CheckNoLostAcked(leader.ExportState(), standby.ExportState()); len(vs) != 0 {
		t.Fatalf("audit red after a clean resync: %v", vs)
	}
}
