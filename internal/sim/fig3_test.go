package sim

import (
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/obs"
)

// TestMigrationLedgerProjection feeds Fig. 3's projection a hand-built
// event sequence: an emergency departure with the agent's own
// node.departed ahead of the detection, a temporary departure and the
// migrate-back that follows it, a scheduled departure with one move that
// fails, and a predictive drain that is no departure's move.
func TestMigrationLedgerProjection(t *testing.T) {
	running := map[string]int{"vol-1": 2, "vol-2": 1, "vol-3": 2}
	l := newMigrationLedger(func(node string) int { return running[node] })
	at := func(d time.Duration) time.Time { return Epoch.Add(d) }
	feed := func(ev obs.Event) { l.observe(ev) }
	departed := func(d time.Duration, node string, reason api.DepartReason) obs.Event {
		return obs.Event{Time: at(d), Kind: obs.KindNodeDeparted, Node: node,
			Detail: map[string]string{"reason": string(reason)}}
	}
	// moved relaunches job at launch: the target agent's job.started,
	// whose chain takes restore to arrive, then the coordinator's record.
	moved := func(launch, restore time.Duration, job, from, reason string) {
		feed(obs.Event{Time: at(launch), Kind: obs.KindJobStarted, Job: job, Node: "stable-1",
			Detail: map[string]string{"restore_delay": restore.String()}})
		feed(obs.Event{Time: at(launch), Kind: obs.KindJobMigrated, Job: job, Node: "stable-1",
			Detail: map[string]string{"from": from, "reason": reason}})
	}

	// Emergency: the agent records its departure while its jobs still
	// read running; the sweep detects the loss 90 s later.
	feed(departed(0, "vol-1", api.DepartEmergency))
	feed(obs.Event{Time: at(90 * time.Second), Kind: obs.KindNodeUnreachable, Node: "vol-1"})
	running["vol-1"] = 0
	moved(90*time.Second, 10*time.Second, "j1", "vol-1", "emergency")
	moved(90*time.Second, 50*time.Second, "j2", "vol-1", "emergency")

	// Temporary: the coordinator's record moves the job; the agent's
	// own record follows with nothing left running there.
	feed(departed(time.Hour, "vol-2", api.DepartTemporary))
	running["vol-2"] = 0
	feed(departed(time.Hour, "vol-2", api.DepartTemporary))
	moved(time.Hour, 5*time.Second, "j3", "vol-2", "temporary")
	feed(obs.Event{Time: at(2 * time.Hour), Kind: obs.KindJobMigratedBack, Job: "j3", Node: "vol-2",
		Detail: map[string]string{"from": "stable-1", "reason": "migrate-back"}})

	// Scheduled: two attempts, one relaunch; the other job found no
	// target and was requeued.
	feed(departed(3*time.Hour, "vol-3", api.DepartScheduled))
	running["vol-3"] = 0
	moved(3*time.Hour, 8*time.Second, "j4", "vol-3", "scheduled")
	feed(obs.Event{Time: at(3 * time.Hour), Kind: obs.KindJobRequeued, Job: "j5"})

	// A predictive drain off a node that departed earlier is not one of
	// that departure's moves.
	moved(4*time.Hour, 0, "j6", "vol-1", "predictive")

	for _, tc := range []struct {
		reason   api.DepartReason
		attempts int
		rate     float64
		mean     time.Duration
	}{
		{api.DepartEmergency, 2, 0.5, 30 * time.Second},
		{api.DepartTemporary, 1, 1, 5 * time.Second},
		{api.DepartScheduled, 2, 0.5, 8 * time.Second},
	} {
		if got := l.attempts[tc.reason]; got != tc.attempts {
			t.Errorf("%s: %d attempts, want %d", tc.reason, got, tc.attempts)
		}
		rate, mean := l.scenario(tc.reason, fig3Deadline)
		if rate != tc.rate || mean != tc.mean {
			t.Errorf("%s: rate within %v = %v, mean downtime %v; want %v, %v",
				tc.reason, fig3Deadline, rate, mean, tc.rate, tc.mean)
		}
	}
	if l.attempts["predictive"] != 0 || len(l.downtimes["predictive"]) != 0 {
		t.Errorf("the predictive drain counted: %v attempts, %v", l.attempts, l.downtimes)
	}
	if l.migratedBack != 1 {
		t.Errorf("migrated back = %d, want 1", l.migratedBack)
	}
}
