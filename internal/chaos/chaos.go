// Package chaos is GPUnion's deterministic fault-injection engine: it
// composes seeded schedules of node churn, network partitions (control-
// plane-only and full data-plane), per-node clock skew, duplicate
// message delivery, WAL disk faults, checkpoint-store corruption,
// coordinator crashes, leader kills, split brain, gray failures and
// aggregator faults, executes them on the simulated clock against a
// live platform, and audits the system database's invariants
// (internal/invariant) after every injected event.
//
// Every windowed family is one row of the families table: its kinds,
// the Spec knobs it reads, its target draw, and the Platform actions
// that open and heal its windows. Generate walks the rows; the engine
// opens every window through one per-target count, so overlapping
// windows heal only when the last one closes.
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
	"slices"
	"sort"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
)

// Kind enumerates fault types. A windowed family is a Kind, one row of
// the families table and the Platform action the row opens and heals —
// see docs/FAULT-MODEL.md "Adding a new fault family".
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
	// acked mutations. A no-op on a standalone coordinator.
	KindLeaderKill Kind = "leader-kill"
	// KindSplitBrain isolates the leader from the lease arbiter and
	// skews its clock backwards for Dur, the worst case for fencing: a
	// standby is elected while the zombie still believes its lease is
	// live. A no-op on a standalone coordinator.
	KindSplitBrain Kind = "split-brain"
	// KindGrayDegrade makes a node gray-fail for Dur: its devices emit
	// health events (XID errors, thermal throttling, slowdowns) while
	// the node keeps heartbeating and running work. The platform must
	// fold the events, stop placing on the node, and predictively drain
	// it.
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
	KindAggCrash Kind = "agg-crash"
	// KindAggPartition cuts an aggregator's upstream link to the
	// coordinator for Dur: the aggregator degrades, refuses its agents'
	// beats, and they fall back direct while it probes.
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
	// Dur is the fault window of a windowed family; the engine
	// schedules the matching heal at At+Dur.
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
	// Only meaningful on a replicated coordinator.
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
	// Aggregators are the injectable rack-aggregator identities.
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

// Generate composes a deterministic fault schedule from the spec: same
// spec and seed, same schedule, independent of map iteration or wall
// time. Families draw from the rng in the order they were added, each
// guarded by its rate or count, so a spec that leaves the newer ones at
// zero composes the schedule it always did: churn, then the families
// table, with the coordinator faults placed at split brain's row.
func Generate(spec Spec, seed int64) Schedule {
	rng := rand.New(rand.NewSource(seed))
	sched, churnTimes := drawChurn(rng, spec)
	for i := range families {
		fam := &families[i]
		if fam.rate == nil {
			// Split brain's row: the coordinator faults draw here.
			sched = append(sched, placeCoordinatorFaults(rng, spec, churnTimes)...)
			continue
		}
		for j, t := range poissonTimes(rng, fam.rate(spec), spec.Duration) {
			f := Fault{At: t, Kind: fam.kinds[j%len(fam.kinds)]}
			if fam.target != nil && !fam.target(rng, spec, &f) {
				break
			}
			f.Dur = clampDur(expDur(rng, float64(fam.mean(spec))), fam.lo, fam.hi)
			sched = append(sched, f)
		}
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched
}

// drawChurn composes per-node churn timelines — up → fault → down →
// return → up … — and returns the fault times too, for the coordinator
// crashes to ride.
func drawChurn(rng *rand.Rand, spec Spec) (Schedule, []time.Duration) {
	var sched Schedule
	var churnTimes []time.Duration
	meanOutage := orDefault(spec.MeanOutage, 30*time.Minute)
	for _, node := range spec.Nodes {
		if spec.ChurnPerNodePerDay <= 0 {
			break
		}
		t := expDur(rng, float64(24*time.Hour)/spec.ChurnPerNodePerDay)
		for t < spec.Duration {
			outage := expDur(rng, float64(meanOutage))
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
	return sched, churnTimes
}

// placeCoordinatorFaults places the coordinator crashes, leader kills
// and split-brain windows, in that order.
func placeCoordinatorFaults(rng *rand.Rand, spec Spec, churnTimes []time.Duration) Schedule {
	var sched Schedule
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
		sched = append(sched, Fault{At: beforeEnd(at, spec), Kind: KindCoordCrash})
	}
	// Leader kills: spread across the horizon with bounded jitter, so
	// each failover runs against a different phase of the workload.
	for i := 0; i < spec.LeaderKills; i++ {
		at := time.Duration(float64(spec.Duration) * (float64(i) + 0.5) / float64(spec.LeaderKills+1))
		at += time.Duration(rng.Int63n(int64(time.Minute)))
		sched = append(sched, Fault{At: beforeEnd(at, spec), Kind: KindLeaderKill})
	}
	// Split-brain windows: same placement strategy, with a bounded
	// window during which a zombie leader coexists with its successor.
	for i := 0; i < spec.SplitBrains; i++ {
		at := time.Duration(float64(spec.Duration) * (float64(i) + 0.75) / float64(spec.SplitBrains+1))
		at += time.Duration(rng.Int63n(int64(time.Minute)))
		sched = append(sched, Fault{
			At: beforeEnd(at, spec), Kind: KindSplitBrain,
			Dur: clampDur(expDur(rng, float64(orDefault(spec.MeanSplitBrain, 2*time.Minute))), 30*time.Second, 10*time.Minute),
		})
	}
	return sched
}

// beforeEnd pulls a placed fault that lands past the horizon back to
// its last minute.
func beforeEnd(at time.Duration, spec Spec) time.Duration {
	if at >= spec.Duration {
		return spec.Duration - time.Minute
	}
	return at
}

// family is one row of the fault table: a windowed fault family, how
// Generate draws it and how the engine opens and heals its windows.
type family struct {
	// kinds are the family's fault kinds; the i-th fault drawn is
	// kinds[i%len(kinds)], so a family of two alternates its modes.
	kinds []Kind
	// rate and mean read the family's Spec knobs, mean with its default
	// folded in; a drawn window is clamped to [lo, hi]. Faults arrive as
	// a Poisson process at rate per day. A nil rate marks the one family
	// Generate places with its own code, split brain.
	rate   func(Spec) float64
	mean   func(Spec) time.Duration
	lo, hi time.Duration
	// target draws the fault's target (Node or Nodes, and Skew) before
	// its window; false means there is nothing to target and ends the
	// family's draw. Nil for a fleet-wide family.
	target func(rng *rand.Rand, s Spec, f *Fault) bool
	// healAudit, when set, labels the invariant audit run after a heal
	// (followed by the healed targets).
	healAudit string
	// open injects a window's fault. heal ends it on the targets whose
	// last open window just closed (f.Nodes holds just those) and
	// returns any violation the heal exposed.
	open func(p Platform, f Fault)
	heal func(p Platform, f Fault) []invariant.Violation
}

// families is the fault table. Generate walks it in order, so a new
// family's row goes at the end: rows before it keep drawing what they
// always drew for a given seed.
var families = []family{{
	kinds: []Kind{KindPartition},
	rate:  func(s Spec) float64 { return s.PartitionsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanPartition, 10*time.Minute) },
	lo:    time.Minute, hi: 2 * time.Hour, target: drawNodeSet, healAudit: "partition-heal",
	open: func(p Platform, f Fault) { p.PartitionStart(f.Nodes) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.PartitionHeal(f.Nodes); return nil },
}, {
	kinds: []Kind{KindWALSyncError, KindWALShortWrite},
	rate:  func(s Spec) float64 { return s.WALFaultsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanWALFault, 5*time.Minute) },
	lo:    30 * time.Second, hi: time.Hour,
	open: func(p Platform, f Fault) {
		mode := WALSyncError
		if f.Kind == KindWALShortWrite {
			mode = WALShortWrite
		}
		p.SetWALFault(mode)
	},
	heal: func(p Platform, f Fault) []invariant.Violation { p.SetWALFault(WALHealthy); return nil },
}, {
	kinds: []Kind{KindClockSkew},
	rate:  func(s Spec) float64 { return s.ClockSkewsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanSkewWindow, 20*time.Minute) },
	lo:    5 * time.Minute, hi: 2 * time.Hour, target: drawSkew, healAudit: "clock-skew-heal",
	open: func(p Platform, f Fault) { p.SetClockSkew(f.Node, f.Skew) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.SetClockSkew(f.Node, 0); return nil },
}, {
	kinds: []Kind{KindDupDeliver},
	rate:  func(s Spec) float64 { return s.DupWindowsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanDupWindow, 10*time.Minute) },
	lo:    time.Minute, hi: time.Hour,
	open: func(p Platform, f Fault) { p.SetDupDelivery(true) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.SetDupDelivery(false); return nil },
}, {
	kinds: []Kind{KindDataPartition},
	rate:  func(s Spec) float64 { return s.DataPartitionsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanPartition, 10*time.Minute) },
	lo:    time.Minute, hi: 2 * time.Hour, target: drawNodeSet, healAudit: "data-partition-heal",
	open: func(p Platform, f Fault) { p.DataPartitionStart(f.Nodes) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.DataPartitionHeal(f.Nodes); return nil },
}, {
	kinds: []Kind{KindCkptBitFlip, KindCkptTruncate},
	rate:  func(s Spec) float64 { return s.CkptFaultsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanCkptFault, 10*time.Minute) },
	lo:    time.Minute, hi: time.Hour,
	open: func(p Platform, f Fault) {
		mode := CkptBitFlip
		if f.Kind == KindCkptTruncate {
			mode = CkptTruncate
		}
		p.SetCheckpointFault(mode)
	},
	heal: func(p Platform, f Fault) []invariant.Violation { p.SetCheckpointFault(CkptHealthy); return nil },
}, {
	kinds: []Kind{KindSplitBrain}, healAudit: "split-brain-heal",
	open: func(p Platform, f Fault) { p.SplitBrainStart() },
	heal: func(p Platform, f Fault) []invariant.Violation { return p.SplitBrainHeal() },
}, {
	kinds: []Kind{KindGrayDegrade},
	rate:  func(s Spec) float64 { return s.GrayDegradesPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanGrayDegrade, 15*time.Minute) },
	lo:    2 * time.Minute, hi: time.Hour, target: drawNode, healAudit: "gray-degrade-heal",
	open: func(p Platform, f Fault) { p.GrayDegradeStart(f.Node) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.GrayDegradeHeal(f.Node); return nil },
}, {
	kinds: []Kind{KindPartialLoss},
	rate:  func(s Spec) float64 { return s.PartialLossPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanPartialLoss, 10*time.Minute) },
	lo:    time.Minute, hi: time.Hour, target: drawNode, healAudit: "partial-loss-heal",
	open: func(p Platform, f Fault) { p.PartialLossStart(f.Node) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.PartialLossHeal(f.Node); return nil },
}, {
	kinds: []Kind{KindCkptReadRot},
	rate:  func(s Spec) float64 { return s.CkptReadRotPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanCkptReadRot, 10*time.Minute) },
	lo:    time.Minute, hi: time.Hour,
	open: func(p Platform, f Fault) { p.SetCheckpointReadRot(true) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.SetCheckpointReadRot(false); return nil },
}, {
	kinds: []Kind{KindAggCrash},
	rate:  func(s Spec) float64 { return s.AggCrashesPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanAggOutage, 5*time.Minute) },
	lo:    time.Minute, hi: time.Hour, target: drawAggregator, healAudit: "agg-restart",
	open: func(p Platform, f Fault) { p.CrashAggregator(f.Node) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.RestartAggregator(f.Node); return nil },
}, {
	kinds: []Kind{KindAggPartition},
	rate:  func(s Spec) float64 { return s.AggPartitionsPerDay },
	mean:  func(s Spec) time.Duration { return orDefault(s.MeanAggPartition, 10*time.Minute) },
	lo:    time.Minute, hi: time.Hour, target: drawAggregator, healAudit: "agg-partition-heal",
	open: func(p Platform, f Fault) { p.AggPartitionStart(f.Node) },
	heal: func(p Platform, f Fault) []invariant.Violation { p.AggPartitionHeal(f.Node); return nil },
}}

// familyOf finds a windowed kind's row; nil for any other kind.
func familyOf(k Kind) *family {
	for i := range families {
		if slices.Contains(families[i].kinds, k) {
			return &families[i]
		}
	}
	return nil
}

// drawNodeSet targets a random subset of one to MaxPartitionNodes
// (default 3) nodes.
func drawNodeSet(rng *rand.Rand, s Spec, f *Fault) bool {
	n := 1 + rng.Intn(orDefault(s.MaxPartitionNodes, 3))
	if n > len(s.Nodes) {
		n = len(s.Nodes)
	}
	if n == 0 {
		return false
	}
	perm := rng.Perm(len(s.Nodes))[:n]
	sort.Ints(perm)
	f.Nodes = make([]string, n)
	for i, idx := range perm {
		f.Nodes[i] = s.Nodes[idx]
	}
	return true
}

// drawNode targets one node.
func drawNode(rng *rand.Rand, s Spec, f *Fault) bool { return pick(rng, s.Nodes, f) }

// drawAggregator targets one aggregator.
func drawAggregator(rng *rand.Rand, s Spec, f *Fault) bool { return pick(rng, s.Aggregators, f) }

func pick(rng *rand.Rand, ids []string, f *Fault) bool {
	if len(ids) == 0 {
		return false
	}
	f.Node = ids[rng.Intn(len(ids))]
	return true
}

// drawSkew targets one node with a clock offset uniform in ±[30s,
// MaxSkew]; a MaxSkew under one minute means the 2 min default.
func drawSkew(rng *rand.Rand, s Spec, f *Fault) bool {
	if len(s.Nodes) == 0 {
		return false
	}
	maxSkew := s.MaxSkew
	if maxSkew < time.Minute {
		maxSkew = 2 * time.Minute
	}
	f.Skew = 30*time.Second + time.Duration(rng.Int63n(int64(maxSkew-30*time.Second)+1))
	if rng.Intn(2) == 0 {
		f.Skew = -f.Skew
	}
	return pick(rng, s.Nodes, f)
}

// orDefault is v, or def when v is unset.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
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
	// CrashNode is a power loss: the node's agent process is gone with
	// everything in its memory, its workloads die without a checkpoint,
	// and its address stops answering. Nobody tells the coordinator.
	CrashNode(id string)
	// DepartNode announces a departure (temporary = return intent).
	DepartNode(id string, temporary bool)
	// ReturnNode brings a crashed or departed node back: a crashed one
	// boots a fresh agent under the same identity, which registers
	// again.
	ReturnNode(id string)
	// PartitionStart drops the control-plane path to the nodes;
	// PartitionHeal restores it.
	PartitionStart(ids []string)
	PartitionHeal(ids []string)
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
	// KillLeader kills the current leader of a replicated coordinator
	// outright (no shutdown courtesy) and returns any
	// zero-lost-acked-mutation or leadership-protocol violations the
	// handoff exposed.
	KillLeader() []invariant.Violation
	// SplitBrainStart isolates the current leader from the lease
	// arbiter and skews its clock backwards, so it keeps believing in
	// an expired lease while a standby is elected. SplitBrainHeal ends
	// the window: the zombie's clock is restored, its writes during the
	// window are audited, and any accepted stale write is returned as a
	// violation.
	SplitBrainStart()
	SplitBrainHeal() []invariant.Violation
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
	// CrashAggregator kills a rack aggregator: its open flush window is
	// lost and its agents' beats fail over to the direct path.
	// RestartAggregator brings it back empty.
	CrashAggregator(id string)
	RestartAggregator(id string)
	// AggPartitionStart cuts the aggregator's upstream link to the
	// coordinator; AggPartitionHeal restores it.
	AggPartitionStart(id string)
	AggPartitionHeal(id string)
	// ExtraChecks lets the platform report invariants only it can see
	// (e.g. agent-side phantom jobs). Called on periodic audits.
	ExtraChecks() []invariant.Violation
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
	windows map[windowKey]int
	// rec, when set, lands every injected fault and every audited
	// violation in the flight recorder, so a trace export localizes a
	// breach against the fault that preceded it. Nil-safe: obs methods
	// on a nil recorder are no-ops.
	rec *obs.Recorder
}

// windowKey names one family's windows on one target.
type windowKey struct {
	fam    *family
	target string
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
		windows: make(map[windowKey]int),
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

// apply injects one fault, opens its window if its family has one, and
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
	case KindCoordCrash:
		extra = e.plat.CrashCoordinator()
	case KindLeaderKill:
		extra = e.plat.KillLeader()
	default:
		if fam := familyOf(f.Kind); fam != nil {
			e.window(fam, f)
		}
	}
	e.audit(f.describe(), extra)
}

// window opens f's window: one count per family and target (each of
// f.Nodes, else f.Node, which is empty for a fleet-wide family), and
// the family's open injects the fault now. When the window closes, heal
// runs on the targets whose last open window it was — overlapping
// windows never heal each other early — followed by the family's heal
// audit. open runs for every window, so while windows overlap the
// latest one's mode or offset wins. The engine runs on the driver
// goroutine (simclock callbacks are sequential), so the counts need no
// lock.
func (e *Engine) window(fam *family, f Fault) {
	targets := f.Nodes
	if len(targets) == 0 {
		targets = []string{f.Node}
	}
	for _, t := range targets {
		e.windows[windowKey{fam, t}]++
	}
	fam.open(e.plat, f)
	e.clock.AfterFunc(f.Dur, func() {
		var healed []string
		for _, t := range targets {
			e.windows[windowKey{fam, t}]--
			if e.windows[windowKey{fam, t}] == 0 {
				healed = append(healed, t)
			}
		}
		if len(healed) == 0 {
			return
		}
		label := fam.healAudit
		if len(f.Nodes) > 0 {
			f.Nodes = healed
			label += " " + fmt.Sprint(healed)
		} else if f.Node != "" {
			label += " " + f.Node
		}
		vs := fam.heal(e.plat, f)
		if fam.healAudit != "" {
			e.audit(label, vs)
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
