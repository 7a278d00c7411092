package monitor

import (
	"math"
	"time"

	"gpunion/internal/gpu"
)

// Health-score folding. A node's health score is a number in (0, 1]
// — 1 fully healthy — maintained exclusively by FoldHealth: every
// batch of health events the coordinator accepts folds the previous
// (score, instant) pair forward to a new one. The fold is a pure
// function of its inputs, which is what makes the score auditable:
// replaying the same event stream over the same base snapshot must
// land on exactly the stored score (the health-score-consistent
// invariant), on the live store, after WAL recovery, and on a promoted
// standby alike.
//
// Two forces move the score: events push it down multiplicatively
// (each kind/severity has a penalty factor), and elapsed time pulls it
// back toward 1 with a half-life (a node that stops misbehaving
// re-earns placements instead of being unhealthy forever). Decay is
// applied at fold time from the time delta, never from wall-clock
// reads, so the result is deterministic under replay.

// The fold's parameters. The coordinator and the
// health-score-consistent invariant both fold with these, so the
// audit's recomputation matches by construction.
const (
	// healthHalfLife is how long the score takes to recover half of its
	// distance back to 1.0 in the absence of new events.
	healthHalfLife = 10 * time.Minute
	// The penalty factors are multiplicative, in (0, 1]; smaller is
	// harsher. Throttling events are graded by severity (info-severity
	// events are recorded but free).
	xidFatalPenalty       = 0.10
	xidRecoverablePenalty = 0.70
	warnPenalty           = 0.90
	criticalPenalty       = 0.75
	// slowdownFloor clamps how harshly one slowdown observation (whose
	// Value is the observed throughput fraction) can cut the score.
	slowdownFloor = 0.50
	// healthFloor is the minimum score — degraded nodes stay comparable,
	// and the score stays in (0, 1] like the scheduler's reliability.
	healthFloor = 0.001
)

// UnhealthyBelow is the platform-wide degradation threshold: a node
// whose health score falls under it stops receiving placements and has
// its jobs predictively checkpointed and migrated away.
const UnhealthyBelow = 0.4

// FoldHealth advances a node's health score: decay the previous score
// toward 1 over at−prevAt, then apply every event's penalty. A zero
// prevAt means no health history (the score starts at 1 and no decay
// applies). Events' own At stamps are informational; the fold is
// ordered by the coordinator's accept instants so replay cannot be
// reordered by skewed agent clocks.
func FoldHealth(prev float64, prevAt, at time.Time, events []gpu.HealthEvent) float64 {
	score := prev
	if prevAt.IsZero() {
		score = 1
	} else if dt := at.Sub(prevAt); dt > 0 && score < 1 {
		score = 1 - (1-score)*math.Pow(0.5, float64(dt)/float64(healthHalfLife))
	}
	for _, ev := range events {
		score *= penalty(ev)
	}
	if score < healthFloor {
		score = healthFloor
	}
	if score > 1 {
		score = 1
	}
	return score
}

// penalty maps one event to its multiplicative factor.
func penalty(ev gpu.HealthEvent) float64 {
	switch ev.Kind {
	case gpu.HealthXIDFatal:
		return xidFatalPenalty
	case gpu.HealthXIDRecoverable:
		return xidRecoverablePenalty
	case gpu.HealthThermal, gpu.HealthPower:
		switch ev.Severity {
		case gpu.SeverityCritical:
			return criticalPenalty
		case gpu.SeverityWarn:
			return warnPenalty
		}
		return 1
	case gpu.HealthSlowdown:
		// Value is the observed throughput fraction; running at 60% of
		// the expected rate multiplies the score by 0.6, clamped so one
		// wild sample cannot zero the node out.
		f := ev.Value
		if f < slowdownFloor {
			f = slowdownFloor
		}
		if f > 1 {
			f = 1
		}
		return f
	}
	return 1
}
