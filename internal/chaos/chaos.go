// Package chaos is GPUnion's deterministic fault-injection engine: it
// composes seeded schedules of node churn, network partitions (control-
// plane-only and full data-plane), latency spikes, per-node clock skew,
// duplicate message delivery, WAL disk faults, checkpoint-store
// corruption and coordinator crashes, executes them on the simulated
// clock against a live platform, and audits the system database's
// invariants (internal/invariant) after every injected event.
//
// The engine is platform-agnostic: internal/sim assembles the real
// coordinator, agents and WAL, implements the Platform interface, and
// exposes the result as RunChaos scenarios. Everything here is
// deterministic — same seed, same schedule, same event interleaving —
// so any invariant violation a run finds is replayable from its seed.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
)

// Kind enumerates fault types. Adding a new fault type means adding a
// Kind, teaching Generate to draw it, and giving Platform (and its sim
// implementation) the matching action — see README "Chaos harness".
type Kind string

// Fault kinds.
const (
	// KindNodeCrash is a power-loss emergency: workloads die, heartbeats
	// stop, the coordinator is not told.
	KindNodeCrash Kind = "node-crash"
	// KindNodeDepart is an announced departure (scheduled, or temporary
	// when the fault's Temporary flag is set).
	KindNodeDepart Kind = "node-depart"
	// KindNodeReturn brings a crashed or departed node back.
	KindNodeReturn Kind = "node-return"
	// KindPartition cuts the control plane to a set of nodes for Dur:
	// heartbeats are dropped, workloads keep running.
	KindPartition Kind = "partition"
	// KindLatencySpike degrades a node's access link for Dur.
	KindLatencySpike Kind = "latency-spike"
	// KindWALSyncError makes log fsyncs fail for Dur.
	KindWALSyncError Kind = "wal-sync-error"
	// KindWALShortWrite tears log writes mid-frame for Dur.
	KindWALShortWrite Kind = "wal-short-write"
	// KindCoordCrash kills the coordinator process and restarts it from
	// snapshot + WAL.
	KindCoordCrash Kind = "coord-crash"
	// KindClockSkew steps a node's wall clock by Skew for Dur, then
	// steps it back — the discontinuity is injected twice.
	KindClockSkew Kind = "clock-skew"
	// KindDupDeliver opens a duplicate-delivery window: heartbeats, job
	// updates and launch requests are replayed 1–3×, which every
	// coordinator and agent ingress must absorb without side effects.
	KindDupDeliver Kind = "dup-deliver"
	// KindDataPartition cuts a set of nodes off completely for Dur:
	// the control plane (heartbeats, launches, kills) *and* the data
	// plane (checkpoint transfers) — unlike KindPartition, which models
	// a control-path-only outage.
	KindDataPartition Kind = "data-partition"
	// KindCkptBitFlip silently flips bits in checkpoint blobs written
	// during the window.
	KindCkptBitFlip Kind = "ckpt-bit-flip"
	// KindCkptTruncate silently truncates checkpoint blobs written
	// during the window.
	KindCkptTruncate Kind = "ckpt-truncate"
	// KindLeaderKill kills the current coordinator leader outright; a
	// standby replica must promote from the shipped log with zero lost
	// acked mutations. Ignored by non-replicated platforms.
	KindLeaderKill Kind = "leader-kill"
	// KindSplitBrain isolates the leader from the lease arbiter and
	// skews its clock backwards for Dur, the worst case for fencing: a
	// standby is elected while the zombie still believes its lease is
	// live. Ignored by non-replicated platforms.
	KindSplitBrain Kind = "split-brain"
	// KindGrayDegrade makes a node gray-fail for Dur: its devices emit
	// health events (XID errors, thermal throttling, slowdowns) while
	// the node keeps heartbeating and running work. The platform must
	// fold the events, stop placing on the node, and predictively drain
	// it. Ignored by platforms without gray-failure support.
	KindGrayDegrade Kind = "gray-degrade"
	// KindPartialLoss drops a fraction of one node's heartbeats for Dur
	// — a flaky link, not a partition. The node must neither be swept
	// dead (enough beats get through) nor double-processed when retried
	// beats arrive late.
	KindPartialLoss Kind = "partial-loss"
	// KindCkptReadRot silently damages checkpoint blobs on the *read*
	// path for Dur: the stored bytes are fine, but restores see rot.
	// CRC verification and generation fallback must absorb it.
	KindCkptReadRot Kind = "ckpt-read-rot"
	// KindAggCrash kills a rack aggregator mid-window for Dur, then
	// restarts it empty: its open flush window's deltas are lost, and
	// its agents must fall back to the direct path until it returns.
	// Ignored by platforms without an aggregation tier.
	KindAggCrash Kind = "agg-crash"
	// KindAggPartition cuts an aggregator's upstream link to the
	// coordinator for Dur: the aggregator degrades, refuses its agents'
	// beats, and they fall back direct while it probes. Ignored by
	// platforms without an aggregation tier.
	KindAggPartition Kind = "agg-partition"
)

// Fault is one scheduled injection.
type Fault struct {
	// At is the injection time, as an offset from scenario start.
	At time.Duration
	// Kind selects the fault type.
	Kind Kind
	// Node targets single-node faults.
	Node string
	// Nodes targets partitions.
	Nodes []string
	// Dur is the fault window for partition/latency/WAL faults; the
	// engine schedules the matching heal at At+Dur.
	Dur time.Duration
	// Temporary marks a departure as return-intending.
	Temporary bool
	// Skew is the clock offset for KindClockSkew (either sign).
	Skew time.Duration
}

// describe renders the fault for reports.
func (f Fault) describe() string {
	switch {
	case f.Skew != 0:
		return fmt.Sprintf("%s %s by %v for %v", f.Kind, f.Node, f.Skew, f.Dur)
	case len(f.Nodes) > 0:
		return fmt.Sprintf("%s %v for %v", f.Kind, f.Nodes, f.Dur)
	case f.Node != "":
		return fmt.Sprintf("%s %s", f.Kind, f.Node)
	case f.Dur > 0:
		return fmt.Sprintf("%s for %v", f.Kind, f.Dur)
	default:
		return string(f.Kind)
	}
}

// Schedule is a time-ordered fault sequence.
type Schedule []Fault

// Spec parameterises schedule generation. Zero-valued rates disable
// the corresponding fault type.
type Spec struct {
	// Duration is the injection horizon; faults land in [0, Duration).
	Duration time.Duration
	// Nodes are the injectable provider identities.
	Nodes []string
	// ChurnPerNodePerDay is the per-node rate of crash/departure events
	// (the paper's 0.5–3.2 interruptions/day/node band).
	ChurnPerNodePerDay float64
	// MeanOutage is the mean down time before a churned node returns
	// (default 30 min).
	MeanOutage time.Duration
	// PartitionsPerDay is the rate of control-plane partitions.
	PartitionsPerDay float64
	// MaxPartitionNodes bounds a partition's blast radius (default 3).
	MaxPartitionNodes int
	// MeanPartition is the mean partition length (default 10 min).
	MeanPartition time.Duration
	// LatencySpikesPerDay is the rate of access-link degradations.
	LatencySpikesPerDay float64
	// WALFaultsPerDay is the rate of disk-fault windows on the log.
	WALFaultsPerDay float64
	// MeanWALFault is the mean disk-fault window (default 5 min).
	MeanWALFault time.Duration
	// CoordCrashes is how many coordinator kill/restart events to
	// inject. Each is placed shortly after a churn event when one
	// exists, so restarts land mid-migration.
	CoordCrashes int
	// ClockSkewsPerDay is the rate of per-node clock-step windows.
	ClockSkewsPerDay float64
	// MaxSkew bounds the injected clock offset (default 2 min); the
	// drawn offset is uniform in ±[30s, MaxSkew].
	MaxSkew time.Duration
	// MeanSkewWindow is the mean time until the clock steps back
	// (default 20 min).
	MeanSkewWindow time.Duration
	// DupWindowsPerDay is the rate of duplicate-delivery windows.
	DupWindowsPerDay float64
	// MeanDupWindow is the mean duplicate-delivery window (default 10
	// min).
	MeanDupWindow time.Duration
	// DataPartitionsPerDay is the rate of full (control + data plane)
	// partitions; blast radius and length share the control-partition
	// knobs (MaxPartitionNodes, MeanPartition).
	DataPartitionsPerDay float64
	// CkptFaultsPerDay is the rate of checkpoint-store corruption
	// windows, alternating bit-flip and truncation damage.
	CkptFaultsPerDay float64
	// MeanCkptFault is the mean corruption window (default 10 min).
	MeanCkptFault time.Duration
	// LeaderKills is how many leader kill/failover events to inject.
	// Only meaningful on platforms running a replicated coordinator
	// (ReplicatedPlatform); others ignore the faults.
	LeaderKills int
	// SplitBrains is how many split-brain windows (leader cut from the
	// arbiter with its clock skewed backwards) to inject.
	SplitBrains int
	// MeanSplitBrain is the mean split-brain window (default 2 min).
	MeanSplitBrain time.Duration
	// GrayDegradesPerDay is the rate of gray-failure windows (a node
	// emitting health events while still serving).
	GrayDegradesPerDay float64
	// MeanGrayDegrade is the mean gray-failure window (default 15 min).
	MeanGrayDegrade time.Duration
	// PartialLossPerDay is the rate of flaky-link windows (a fraction
	// of one node's heartbeats dropped).
	PartialLossPerDay float64
	// MeanPartialLoss is the mean flaky-link window (default 10 min).
	MeanPartialLoss time.Duration
	// CkptReadRotPerDay is the rate of checkpoint read-rot windows
	// (damage injected on the restore path, not at write time).
	CkptReadRotPerDay float64
	// MeanCkptReadRot is the mean read-rot window (default 10 min).
	MeanCkptReadRot time.Duration
	// Aggregators are the injectable rack-aggregator identities. Only
	// meaningful on platforms with an aggregation tier (AggPlatform).
	Aggregators []string
	// AggCrashesPerDay is the rate of aggregator crash/restart events.
	AggCrashesPerDay float64
	// MeanAggOutage is the mean aggregator down time (default 5 min).
	MeanAggOutage time.Duration
	// AggPartitionsPerDay is the rate of aggregator-upstream partitions
	// (the aggregator stays up but cannot reach the coordinator).
	AggPartitionsPerDay float64
	// MeanAggPartition is the mean upstream-partition window (default
	// 10 min).
	MeanAggPartition time.Duration
}

// withDefaults fills unset knobs.
func (s Spec) withDefaults() Spec {
	if s.MeanOutage <= 0 {
		s.MeanOutage = 30 * time.Minute
	}
	if s.MaxPartitionNodes <= 0 {
		s.MaxPartitionNodes = 3
	}
	if s.MeanPartition <= 0 {
		s.MeanPartition = 10 * time.Minute
	}
	if s.MeanWALFault <= 0 {
		s.MeanWALFault = 5 * time.Minute
	}
	if s.MaxSkew < time.Minute {
		s.MaxSkew = 2 * time.Minute
	}
	if s.MeanSkewWindow <= 0 {
		s.MeanSkewWindow = 20 * time.Minute
	}
	if s.MeanDupWindow <= 0 {
		s.MeanDupWindow = 10 * time.Minute
	}
	if s.MeanCkptFault <= 0 {
		s.MeanCkptFault = 10 * time.Minute
	}
	if s.MeanSplitBrain <= 0 {
		s.MeanSplitBrain = 2 * time.Minute
	}
	if s.MeanGrayDegrade <= 0 {
		s.MeanGrayDegrade = 15 * time.Minute
	}
	if s.MeanPartialLoss <= 0 {
		s.MeanPartialLoss = 10 * time.Minute
	}
	if s.MeanCkptReadRot <= 0 {
		s.MeanCkptReadRot = 10 * time.Minute
	}
	if s.MeanAggOutage <= 0 {
		s.MeanAggOutage = 5 * time.Minute
	}
	if s.MeanAggPartition <= 0 {
		s.MeanAggPartition = 10 * time.Minute
	}
	return s
}

// Generate composes a deterministic fault schedule from the spec: same
// spec and seed, same schedule, independent of map iteration or wall
// time.
func Generate(spec Spec, seed int64) Schedule {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	var sched Schedule

	// Per-node churn timelines: up → fault → down → return → up …
	churnTimes := []time.Duration{}
	for _, node := range spec.Nodes {
		if spec.ChurnPerNodePerDay <= 0 {
			break
		}
		t := expDur(rng, float64(24*time.Hour)/spec.ChurnPerNodePerDay)
		for t < spec.Duration {
			outage := expDur(rng, float64(spec.MeanOutage))
			if outage < time.Minute {
				outage = time.Minute
			}
			f := Fault{At: t, Node: node}
			switch rng.Intn(3) {
			case 0:
				f.Kind = KindNodeCrash
			case 1:
				f.Kind = KindNodeDepart // scheduled
			default:
				f.Kind = KindNodeDepart
				f.Temporary = true
			}
			sched = append(sched, f)
			sched = append(sched, Fault{At: t + outage, Kind: KindNodeReturn, Node: node})
			churnTimes = append(churnTimes, t)
			t += outage + expDur(rng, float64(24*time.Hour)/spec.ChurnPerNodePerDay)
		}
	}

	// Partitions: random subsets of the fleet.
	for _, t := range poissonTimes(rng, spec.PartitionsPerDay, spec.Duration) {
		n := 1 + rng.Intn(spec.MaxPartitionNodes)
		if n > len(spec.Nodes) {
			n = len(spec.Nodes)
		}
		if n == 0 {
			break
		}
		perm := rng.Perm(len(spec.Nodes))[:n]
		sort.Ints(perm)
		members := make([]string, n)
		for i, idx := range perm {
			members[i] = spec.Nodes[idx]
		}
		sched = append(sched, Fault{
			At: t, Kind: KindPartition, Nodes: members,
			Dur: clampDur(expDur(rng, float64(spec.MeanPartition)), time.Minute, 2*time.Hour),
		})
	}

	// Latency spikes on single links.
	for _, t := range poissonTimes(rng, spec.LatencySpikesPerDay, spec.Duration) {
		if len(spec.Nodes) == 0 {
			break
		}
		sched = append(sched, Fault{
			At: t, Kind: KindLatencySpike, Node: spec.Nodes[rng.Intn(len(spec.Nodes))],
			Dur: clampDur(expDur(rng, float64(15*time.Minute)), time.Minute, time.Hour),
		})
	}

	// WAL disk-fault windows, alternating failure modes.
	for i, t := range poissonTimes(rng, spec.WALFaultsPerDay, spec.Duration) {
		kind := KindWALSyncError
		if i%2 == 1 {
			kind = KindWALShortWrite
		}
		sched = append(sched, Fault{
			At: t, Kind: kind,
			Dur: clampDur(expDur(rng, float64(spec.MeanWALFault)), 30*time.Second, time.Hour),
		})
	}

	// Clock-skew windows: one node's wall clock steps by a bounded
	// offset, then steps back when the window closes. (The new fault
	// families draw from the rng after the original ones and are
	// rate-guarded, so a spec that leaves them at zero composes the
	// same schedule it always did for a given seed.)
	for _, t := range poissonTimes(rng, spec.ClockSkewsPerDay, spec.Duration) {
		if len(spec.Nodes) == 0 {
			break
		}
		span := int64(spec.MaxSkew - 30*time.Second)
		skew := 30*time.Second + time.Duration(rng.Int63n(span+1))
		if rng.Intn(2) == 0 {
			skew = -skew
		}
		sched = append(sched, Fault{
			At: t, Kind: KindClockSkew,
			Node: spec.Nodes[rng.Intn(len(spec.Nodes))],
			Skew: skew,
			Dur:  clampDur(expDur(rng, float64(spec.MeanSkewWindow)), 5*time.Minute, 2*time.Hour),
		})
	}

	// Duplicate-delivery windows.
	for _, t := range poissonTimes(rng, spec.DupWindowsPerDay, spec.Duration) {
		sched = append(sched, Fault{
			At: t, Kind: KindDupDeliver,
			Dur: clampDur(expDur(rng, float64(spec.MeanDupWindow)), time.Minute, time.Hour),
		})
	}

	// Data-plane partitions: random subsets, like control partitions,
	// but severing checkpoint transfers too.
	for _, t := range poissonTimes(rng, spec.DataPartitionsPerDay, spec.Duration) {
		n := 1 + rng.Intn(spec.MaxPartitionNodes)
		if n > len(spec.Nodes) {
			n = len(spec.Nodes)
		}
		if n == 0 {
			break
		}
		perm := rng.Perm(len(spec.Nodes))[:n]
		sort.Ints(perm)
		members := make([]string, n)
		for i, idx := range perm {
			members[i] = spec.Nodes[idx]
		}
		sched = append(sched, Fault{
			At: t, Kind: KindDataPartition, Nodes: members,
			Dur: clampDur(expDur(rng, float64(spec.MeanPartition)), time.Minute, 2*time.Hour),
		})
	}

	// Checkpoint-store corruption windows, alternating damage modes.
	for i, t := range poissonTimes(rng, spec.CkptFaultsPerDay, spec.Duration) {
		kind := KindCkptBitFlip
		if i%2 == 1 {
			kind = KindCkptTruncate
		}
		sched = append(sched, Fault{
			At: t, Kind: kind,
			Dur: clampDur(expDur(rng, float64(spec.MeanCkptFault)), time.Minute, time.Hour),
		})
	}

	// Coordinator crashes: ride shortly after churn events so restarts
	// catch migrations in flight; fall back to uniform placement.
	for i := 0; i < spec.CoordCrashes; i++ {
		var at time.Duration
		if len(churnTimes) > 0 {
			at = churnTimes[rng.Intn(len(churnTimes))] +
				10*time.Second + time.Duration(rng.Int63n(int64(20*time.Second)))
		} else {
			at = time.Duration(float64(spec.Duration) * (float64(i) + 0.5) / float64(spec.CoordCrashes))
		}
		if at >= spec.Duration {
			at = spec.Duration - time.Minute
		}
		sched = append(sched, Fault{At: at, Kind: KindCoordCrash})
	}

	// Leader kills: spread across the horizon with bounded jitter, so
	// each failover runs against a different phase of the workload.
	// (Drawn after every older family and guarded by its own count, so
	// a spec that leaves replication faults at zero composes the same
	// schedule it always did for a given seed.)
	for i := 0; i < spec.LeaderKills; i++ {
		at := time.Duration(float64(spec.Duration) * (float64(i) + 0.5) / float64(spec.LeaderKills+1))
		at += time.Duration(rng.Int63n(int64(time.Minute)))
		if at >= spec.Duration {
			at = spec.Duration - time.Minute
		}
		sched = append(sched, Fault{At: at, Kind: KindLeaderKill})
	}

	// Split-brain windows: same placement strategy, with a bounded
	// window during which a zombie leader coexists with its successor.
	for i := 0; i < spec.SplitBrains; i++ {
		at := time.Duration(float64(spec.Duration) * (float64(i) + 0.75) / float64(spec.SplitBrains+1))
		at += time.Duration(rng.Int63n(int64(time.Minute)))
		if at >= spec.Duration {
			at = spec.Duration - time.Minute
		}
		sched = append(sched, Fault{
			At: at, Kind: KindSplitBrain,
			Dur: clampDur(expDur(rng, float64(spec.MeanSplitBrain)), 30*time.Second, 10*time.Minute),
		})
	}

	// Gray-failure windows: one node degrades while staying in service.
	// (Like every family added after the original set, these draw from
	// the rng last and only when their rate is non-zero, so the eight
	// pre-existing seeded schedules are unchanged.)
	for _, t := range poissonTimes(rng, spec.GrayDegradesPerDay, spec.Duration) {
		if len(spec.Nodes) == 0 {
			break
		}
		sched = append(sched, Fault{
			At: t, Kind: KindGrayDegrade,
			Node: spec.Nodes[rng.Intn(len(spec.Nodes))],
			Dur:  clampDur(expDur(rng, float64(spec.MeanGrayDegrade)), 2*time.Minute, time.Hour),
		})
	}

	// Flaky-link windows: partial heartbeat loss on one node.
	for _, t := range poissonTimes(rng, spec.PartialLossPerDay, spec.Duration) {
		if len(spec.Nodes) == 0 {
			break
		}
		sched = append(sched, Fault{
			At: t, Kind: KindPartialLoss,
			Node: spec.Nodes[rng.Intn(len(spec.Nodes))],
			Dur:  clampDur(expDur(rng, float64(spec.MeanPartialLoss)), time.Minute, time.Hour),
		})
	}

	// Checkpoint read-rot windows.
	for _, t := range poissonTimes(rng, spec.CkptReadRotPerDay, spec.Duration) {
		sched = append(sched, Fault{
			At: t, Kind: KindCkptReadRot,
			Dur: clampDur(expDur(rng, float64(spec.MeanCkptReadRot)), time.Minute, time.Hour),
		})
	}

	// Aggregator crashes: a rack relay dies with a flush window open,
	// restarts empty after the outage. (Drawn after every older family
	// and rate-guarded, preserving pre-existing seeded schedules.)
	for _, t := range poissonTimes(rng, spec.AggCrashesPerDay, spec.Duration) {
		if len(spec.Aggregators) == 0 {
			break
		}
		sched = append(sched, Fault{
			At: t, Kind: KindAggCrash,
			Node: spec.Aggregators[rng.Intn(len(spec.Aggregators))],
			Dur:  clampDur(expDur(rng, float64(spec.MeanAggOutage)), time.Minute, time.Hour),
		})
	}

	// Aggregator-upstream partitions: the relay stays up but its
	// coordinator link is cut, forcing degradation + direct fallback.
	for _, t := range poissonTimes(rng, spec.AggPartitionsPerDay, spec.Duration) {
		if len(spec.Aggregators) == 0 {
			break
		}
		sched = append(sched, Fault{
			At: t, Kind: KindAggPartition,
			Node: spec.Aggregators[rng.Intn(len(spec.Aggregators))],
			Dur:  clampDur(expDur(rng, float64(spec.MeanAggPartition)), time.Minute, time.Hour),
		})
	}

	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}

// expDur draws an exponential duration with the given mean (in
// nanoseconds as float).
func expDur(rng *rand.Rand, mean float64) time.Duration {
	return time.Duration(rng.ExpFloat64() * mean)
}

// poissonTimes draws event times at ratePerDay over [0, span).
func poissonTimes(rng *rand.Rand, ratePerDay float64, span time.Duration) []time.Duration {
	if ratePerDay <= 0 {
		return nil
	}
	var out []time.Duration
	mean := float64(24*time.Hour) / ratePerDay
	t := expDur(rng, mean)
	for t < span {
		out = append(out, t)
		t += expDur(rng, mean)
	}
	return out
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// WALFaultMode is the injected disk behaviour.
type WALFaultMode int

// WAL fault modes.
const (
	WALHealthy WALFaultMode = iota
	WALSyncError
	WALShortWrite
)

// CkptFaultMode is the injected checkpoint-store behaviour.
type CkptFaultMode int

// Checkpoint-store fault modes.
const (
	CkptHealthy CkptFaultMode = iota
	CkptBitFlip
	CkptTruncate
)

// Platform is the set of actions the engine drives and audits. The sim
// harness implements it over the real coordinator, agents, LAN model
// and write-ahead log. Implementations must treat redundant actions
// (crashing a node that is already down, healing a healthy link) as
// no-ops: schedules are generated, not hand-checked.
type Platform interface {
	// Store exposes the system database the invariant checker audits.
	Store() db.Store
	// CrashNode kills a node's workloads and silences it.
	CrashNode(id string)
	// DepartNode announces a departure (temporary = return intent).
	DepartNode(id string, temporary bool)
	// ReturnNode brings a crashed or departed node back.
	ReturnNode(id string)
	// PartitionStart drops the control-plane path to the nodes;
	// PartitionHeal restores it.
	PartitionStart(ids []string)
	PartitionHeal(ids []string)
	// LatencySpikeStart degrades a node's access link; LatencySpikeHeal
	// restores it.
	LatencySpikeStart(id string)
	LatencySpikeHeal(id string)
	// SetWALFault switches the injected disk behaviour under the log.
	SetWALFault(mode WALFaultMode)
	// SetClockSkew steps a node's wall clock to the given offset from
	// true time (zero steps it back).
	SetClockSkew(id string, offset time.Duration)
	// SetDupDelivery toggles duplicate delivery of control messages
	// (heartbeats, job updates, launches).
	SetDupDelivery(enabled bool)
	// DataPartitionStart cuts both the control and data plane to the
	// nodes; DataPartitionHeal restores them.
	DataPartitionStart(ids []string)
	DataPartitionHeal(ids []string)
	// SetCheckpointFault switches the injected damage mode under the
	// checkpoint store's backing blobs.
	SetCheckpointFault(mode CkptFaultMode)
	// CrashCoordinator kills the coordinator and restarts it from
	// snapshot + WAL, returning any recovery-equivalence violations.
	CrashCoordinator() []invariant.Violation
	// ExtraChecks lets the platform report invariants only it can see
	// (e.g. agent-side phantom jobs). Called on periodic audits.
	ExtraChecks() []invariant.Violation
}

// ReplicatedPlatform is the optional capability interface for platforms
// running a replicated coordinator (leader + standby over WAL
// shipping). The engine type-asserts for it when applying
// KindLeaderKill and KindSplitBrain; platforms without it absorb those
// faults as no-ops, keeping the Platform contract stable for the
// standalone harness and its tests.
type ReplicatedPlatform interface {
	// KillLeader kills the current leader outright (no shutdown
	// courtesy), promotes a standby, re-points the agents, and returns
	// any zero-lost-acked-mutation or leadership-protocol violations
	// the handoff exposed.
	KillLeader() []invariant.Violation
	// SplitBrainStart isolates the current leader from the lease
	// arbiter and skews its clock backwards, so it keeps believing in
	// an expired lease while a standby is elected.
	SplitBrainStart()
	// SplitBrainHeal ends the window: the zombie's clock is restored,
	// its writes during the window are audited, and any accepted stale
	// write is returned as a violation.
	SplitBrainHeal() []invariant.Violation
}

// GrayPlatform is the optional capability interface for platforms with
// gray-failure support (health-event injection, flaky links, read-side
// checkpoint rot). The engine type-asserts for it when applying
// KindGrayDegrade, KindPartialLoss and KindCkptReadRot; platforms
// without it absorb those faults as no-ops, keeping the Platform
// contract stable — the same arrangement as ReplicatedPlatform.
type GrayPlatform interface {
	// GrayDegradeStart makes the node's devices emit health events
	// (XID errors, thermal throttling, slowdowns) while the node keeps
	// serving; GrayDegradeHeal stops the emission (the folded score
	// recovers by decay).
	GrayDegradeStart(id string)
	GrayDegradeHeal(id string)
	// PartialLossStart drops a deterministic fraction of the node's
	// heartbeats; PartialLossHeal restores the link.
	PartialLossStart(id string)
	PartialLossHeal(id string)
	// SetCheckpointReadRot toggles silent damage on the checkpoint
	// store's read path (stored bytes stay intact).
	SetCheckpointReadRot(enabled bool)
}

// AggPlatform is the optional capability interface for platforms with
// a rack aggregation tier. The engine type-asserts for it when applying
// KindAggCrash and KindAggPartition; platforms without it absorb those
// faults as no-ops, the same arrangement as ReplicatedPlatform and
// GrayPlatform.
type AggPlatform interface {
	// CrashAggregator kills the aggregator: its open flush window is
	// lost and its agents' beats fail over to the direct path.
	CrashAggregator(id string)
	// RestartAggregator brings the aggregator back empty.
	RestartAggregator(id string)
	// AggPartitionStart cuts the aggregator's upstream link to the
	// coordinator; AggPartitionHeal restores it.
	AggPartitionStart(id string)
	AggPartitionHeal(id string)
}

// Observation is one audited point in a run: the fault (or audit tick)
// and the violations found right after it.
type Observation struct {
	// At is the simulated time of the event.
	At time.Time
	// Fault describes what was injected ("audit" for periodic checks).
	Fault string
	// Violations are the invariant breaches found by the audit.
	Violations []invariant.Violation
}

// Report is the outcome of one chaos run.
type Report struct {
	// Executed counts injected faults by kind.
	Executed map[Kind]int
	// Observations lists every audited point that found violations,
	// plus every injected fault (with or without violations).
	Observations []Observation
	// Violations is the flattened list of all invariant breaches.
	Violations []invariant.Violation
	// Audits is how many invariant checks ran.
	Audits int
}

// Engine executes a schedule against a platform on the simulated
// clock, auditing invariants after every fault and at a periodic
// cadence in between.
type Engine struct {
	clock   *simclock.Sim
	plat    Platform
	checker *invariant.Checker
	rep     Report
	// windows counts the open fault windows per family and target (see
	// window): overlapping windows must not heal each other early.
	windows map[string]int
	// rec, when set, lands every injected fault and every audited
	// violation in the flight recorder, so a trace export localizes a
	// breach against the fault that preceded it. Nil-safe: obs methods
	// on a nil recorder are no-ops.
	rec *obs.Recorder
}

// SetRecorder attaches a flight recorder; call before Execute.
func (e *Engine) SetRecorder(r *obs.Recorder) { e.rec = r }

// NewEngine creates an engine. The checker persists across coordinator
// crashes within the run, so LSN monotonicity is audited through
// recovery boundaries.
func NewEngine(clock *simclock.Sim, plat Platform) *Engine {
	return &Engine{
		clock:   clock,
		plat:    plat,
		checker: invariant.NewChecker(),
		rep:     Report{Executed: make(map[Kind]int)},
		windows: make(map[string]int),
	}
}

// Execute arms every fault in the schedule, runs the clock through the
// horizon plus a drain period, audits after every event (and every
// auditEvery in between, including platform-level extra checks), and
// returns the report. A final audit runs at the very end.
func (e *Engine) Execute(sched Schedule, auditEvery, drain time.Duration) *Report {
	horizon := time.Duration(0)
	for _, f := range sched {
		if end := f.At + f.Dur; end > horizon {
			horizon = end
		}
	}
	for _, f := range sched {
		f := f
		e.clock.AfterFunc(f.At, func() { e.apply(f) })
	}
	if auditEvery > 0 {
		e.armAudit(auditEvery, horizon+drain)
	}
	e.clock.Advance(horizon + drain)
	e.audit("final", e.plat.ExtraChecks())
	return &e.rep
}

// armAudit schedules recurring audits until the horizon.
func (e *Engine) armAudit(every, remaining time.Duration) {
	if remaining < every {
		return
	}
	e.clock.AfterFunc(every, func() {
		e.audit("audit", e.plat.ExtraChecks())
		e.armAudit(every, remaining-every)
	})
}

// apply injects one fault, schedules its heal if it has a window, and
// audits the store.
func (e *Engine) apply(f Fault) {
	e.rep.Executed[f.Kind]++
	// Annotate before injecting: in the trace, the fault strictly
	// precedes any violation it causes.
	e.rec.Record(obs.KindFaultInjected, "", f.Node, map[string]string{
		"kind": string(f.Kind), "fault": f.describe(),
	})
	var extra []invariant.Violation
	switch f.Kind {
	case KindNodeCrash:
		e.plat.CrashNode(f.Node)
	case KindNodeDepart:
		e.plat.DepartNode(f.Node, f.Temporary)
	case KindNodeReturn:
		e.plat.ReturnNode(f.Node)
	case KindPartition:
		e.plat.PartitionStart(f.Nodes)
		nodes := f.Nodes
		e.clock.AfterFunc(f.Dur, func() {
			e.plat.PartitionHeal(nodes)
			e.audit("partition-heal "+fmt.Sprint(nodes), nil)
		})
	case KindLatencySpike:
		e.plat.LatencySpikeStart(f.Node)
		node := f.Node
		e.clock.AfterFunc(f.Dur, func() { e.plat.LatencySpikeHeal(node) })
	case KindWALSyncError:
		e.window("wal", f.Dur, func() { e.plat.SetWALFault(WALSyncError) },
			func() { e.plat.SetWALFault(WALHealthy) })
	case KindWALShortWrite:
		e.window("wal", f.Dur, func() { e.plat.SetWALFault(WALShortWrite) },
			func() { e.plat.SetWALFault(WALHealthy) })
	case KindCoordCrash:
		extra = e.plat.CrashCoordinator()
	case KindClockSkew:
		node := f.Node
		e.window("clock-skew "+node, f.Dur, func() { e.plat.SetClockSkew(node, f.Skew) }, func() {
			e.plat.SetClockSkew(node, 0)
			e.audit("clock-skew-heal "+node, nil)
		})
	case KindDupDeliver:
		e.window("dup", f.Dur, func() { e.plat.SetDupDelivery(true) },
			func() { e.plat.SetDupDelivery(false) })
	case KindDataPartition:
		e.plat.DataPartitionStart(f.Nodes)
		nodes := f.Nodes
		e.clock.AfterFunc(f.Dur, func() {
			e.plat.DataPartitionHeal(nodes)
			e.audit("data-partition-heal "+fmt.Sprint(nodes), nil)
		})
	case KindCkptBitFlip:
		e.window("ckpt", f.Dur, func() { e.plat.SetCheckpointFault(CkptBitFlip) },
			func() { e.plat.SetCheckpointFault(CkptHealthy) })
	case KindCkptTruncate:
		e.window("ckpt", f.Dur, func() { e.plat.SetCheckpointFault(CkptTruncate) },
			func() { e.plat.SetCheckpointFault(CkptHealthy) })
	case KindLeaderKill:
		if rp, ok := e.plat.(ReplicatedPlatform); ok {
			extra = rp.KillLeader()
		}
	case KindSplitBrain:
		if rp, ok := e.plat.(ReplicatedPlatform); ok {
			rp.SplitBrainStart()
			e.clock.AfterFunc(f.Dur, func() {
				e.audit("split-brain-heal", rp.SplitBrainHeal())
			})
		}
	case KindGrayDegrade:
		if gp, ok := e.plat.(GrayPlatform); ok {
			node := f.Node
			e.window("gray "+node, f.Dur, func() { gp.GrayDegradeStart(node) }, func() {
				gp.GrayDegradeHeal(node)
				e.audit("gray-degrade-heal "+node, nil)
			})
		}
	case KindPartialLoss:
		if gp, ok := e.plat.(GrayPlatform); ok {
			node := f.Node
			e.window("loss "+node, f.Dur, func() { gp.PartialLossStart(node) }, func() {
				gp.PartialLossHeal(node)
				e.audit("partial-loss-heal "+node, nil)
			})
		}
	case KindCkptReadRot:
		if gp, ok := e.plat.(GrayPlatform); ok {
			e.window("read-rot", f.Dur, func() { gp.SetCheckpointReadRot(true) },
				func() { gp.SetCheckpointReadRot(false) })
		}
	case KindAggCrash:
		if ap, ok := e.plat.(AggPlatform); ok {
			agg := f.Node
			e.window("agg-down "+agg, f.Dur, func() { ap.CrashAggregator(agg) }, func() {
				ap.RestartAggregator(agg)
				e.audit("agg-restart "+agg, nil)
			})
		}
	case KindAggPartition:
		if ap, ok := e.plat.(AggPlatform); ok {
			agg := f.Node
			e.window("agg-partition "+agg, f.Dur, func() { ap.AggPartitionStart(agg) }, func() {
				ap.AggPartitionHeal(agg)
				e.audit("agg-partition-heal "+agg, nil)
			})
		}
	}
	e.audit(f.describe(), extra)
}

// window opens one fault window of the family and target named by key:
// open injects the fault now, and heal runs when the last window open
// under key closes — overlapping windows never heal each other early.
// open runs for every window, so while windows overlap the latest one's
// mode or offset wins. The engine runs on the driver goroutine (simclock
// callbacks are sequential), so the counts need no lock.
func (e *Engine) window(key string, dur time.Duration, open, heal func()) {
	e.windows[key]++
	open()
	e.clock.AfterFunc(dur, func() {
		e.windows[key]--
		if e.windows[key] == 0 {
			heal()
		}
	})
}

// audit runs one invariant check, folding in any platform-provided
// violations, and records the observation.
func (e *Engine) audit(label string, extra []invariant.Violation) {
	vs := append(extra, e.checker.Check(e.plat.Store())...)
	e.rep.Audits++
	ob := Observation{At: e.clock.Now(), Fault: label, Violations: vs}
	if len(vs) > 0 || label != "audit" {
		e.rep.Observations = append(e.rep.Observations, ob)
	}
	for _, v := range vs {
		e.rec.Record(obs.KindInvariantViolation, "", "", map[string]string{
			"rule": v.Rule, "detail": v.Detail, "audit": label,
		})
	}
	e.rep.Violations = append(e.rep.Violations, vs...)
}
