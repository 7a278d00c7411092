package invariant

import (
	"encoding/json"
	"fmt"
	"sync"

	"gpunion/internal/db"
)

// CheckNoLostAcked audits a leader handoff: before is the dead leader's
// state at the moment it was killed — everything in it was acknowledged
// to some client — and after is the promoted standby's state at the
// moment it takes over, before it admits any new-epoch mutations.
// Every acknowledged record must survive the failover byte-for-byte:
// under the platform's durable-before-ack rule plus synchronous WAL
// shipping, an acked mutation is on the standby before the client heard
// about it, so a missing or diverged record is a replication bug (a
// dropped or reordered log record), never a tolerable race.
//
// The check is one-directional on purpose. The standby may not be
// *ahead* of the leader in any observable way here — it applies the
// same log — but the rule it enforces is about loss, and loss is what a
// provider-operated, frequently-failing control plane must never leak
// to users who were told their job state was saved.
func CheckNoLostAcked(before, after db.State) []Violation {
	var vs []Violation
	if after.Watermark < before.Watermark {
		vs = append(vs, Violation{
			Rule: "zero-lost-acked-mutations",
			Detail: fmt.Sprintf("promoted store watermark %d behind acked %d: %d acked mutation(s) lost",
				after.Watermark, before.Watermark, before.Watermark-after.Watermark),
		})
	}
	for _, d := range DiffStates(before, after) {
		vs = append(vs, Violation{
			Rule:   "zero-lost-acked-mutations",
			Detail: fmt.Sprintf("acked %s after failover", d),
		})
	}
	return vs
}

// Diff is one record of a store image that another image lacks, or
// holds with a different encoding.
type Diff struct {
	// Table is "node", "job" or "allocation".
	Table string
	// Key is the record's ID; an allocation episode, which has none, is
	// keyed by job, node, device and start.
	Key string
	// Missing is set when the other image has no record under Key.
	Missing bool
}

func (d Diff) String() string {
	if d.Missing {
		return d.Table + " " + d.Key + " missing"
	}
	return d.Table + " " + d.Key + " diverged"
}

// DiffStates walks before's nodes, jobs and allocations and reports
// each record that after lacks or holds with a different canonical
// JSON encoding. Records after holds and before does not are not
// reported: swap the arguments for those. Monitoring samples are soft
// state and not compared.
func DiffStates(before, after db.State) []Diff {
	var out []Diff
	out = diffTable(out, "node", before.Nodes, after.Nodes, func(n db.NodeRecord) string { return n.ID })
	out = diffTable(out, "job", before.Jobs, after.Jobs, func(j db.JobRecord) string { return j.ID })
	return diffTable(out, "allocation", before.Allocations, after.Allocations, func(a db.AllocationRecord) string {
		return fmt.Sprintf("%s/%s/%s/%d", a.JobID, a.NodeID, a.DeviceID, a.Start.UnixNano())
	})
}

// diffTable appends to out a Diff for each record of before that after
// lacks or holds differently under the same key.
func diffTable[R any](out []Diff, table string, before, after []R, key func(R) string) []Diff {
	encode := func(r R) string {
		b, err := json.Marshal(r)
		if err != nil {
			return fmt.Sprintf("unencodable: %v", err)
		}
		return string(b)
	}
	have := make(map[string]string, len(after))
	for _, r := range after {
		have[key(r)] = encode(r)
	}
	for _, r := range before {
		k := key(r)
		if got, ok := have[k]; !ok || got != encode(r) {
			out = append(out, Diff{Table: table, Key: k, Missing: !ok})
		}
	}
	return out
}

// LeaderLog audits the leadership protocol itself: the harness reports
// every lease grant and every externally visible write acceptance, and
// the log cross-checks them against the two rules that make epochs a
// fencing token:
//
//   - single-leader-per-epoch: an epoch is granted to exactly one
//     replica, ever;
//   - no-stale-write-accepted: once any replica has been granted epoch
//     E, no replica may accept a write under an epoch < E. The lease
//     arbiter's skew-tolerance grace exists precisely to make this
//     hold — a deposed leader self-fences before its successor can be
//     elected — so an accepted stale write means the fence leaked.
//
// Zero epochs (standalone coordinators, legacy agents) are outside the
// protocol and ignored.
type LeaderLog struct {
	mu       sync.Mutex
	terms    map[uint64]string // epoch -> granted replica
	maxEpoch uint64
	vs       []Violation
}

// NewLeaderLog returns an empty audit log.
func NewLeaderLog() *LeaderLog {
	return &LeaderLog{terms: make(map[uint64]string)}
}

// RecordTerm registers a lease grant of epoch to replica.
func (l *LeaderLog) RecordTerm(epoch uint64, replica string) {
	if epoch == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.terms[epoch]; ok && prev != replica {
		l.vs = append(l.vs, Violation{
			Rule:   "single-leader-per-epoch",
			Detail: fmt.Sprintf("epoch %d granted to both %s and %s", epoch, prev, replica),
		})
		return
	}
	l.terms[epoch] = replica
	if epoch > l.maxEpoch {
		l.maxEpoch = epoch
	}
}

// RecordWrite registers that replica accepted an externally visible
// mutation while claiming epoch.
func (l *LeaderLog) RecordWrite(epoch uint64, replica string) {
	if epoch == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch < l.maxEpoch {
		l.vs = append(l.vs, Violation{
			Rule: "no-stale-write-accepted",
			Detail: fmt.Sprintf("%s accepted a write at epoch %d after epoch %d was granted",
				replica, epoch, l.maxEpoch),
		})
		return
	}
	if holder, ok := l.terms[epoch]; ok && holder != replica {
		l.vs = append(l.vs, Violation{
			Rule: "no-stale-write-accepted",
			Detail: fmt.Sprintf("%s accepted a write at epoch %d granted to %s",
				replica, epoch, holder),
		})
	}
}

// Violations returns every protocol breach recorded so far.
func (l *LeaderLog) Violations() []Violation {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Violation, len(l.vs))
	copy(out, l.vs)
	return out
}
