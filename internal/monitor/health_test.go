package monitor

import (
	"testing"
	"time"

	"gpunion/internal/gpu"
)

var healthEpoch = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)

// foldSeq replays a sequence of (offset, events) steps through
// FoldHealth the way the coordinator does: each step folds the
// previous (score, instant) pair forward to the step's instant.
func foldSeq(steps []foldStep) float64 {
	score, at := 1.0, time.Time{}
	for _, st := range steps {
		next := healthEpoch.Add(st.after)
		score = FoldHealth(score, at, next, st.events)
		at = next
	}
	return score
}

type foldStep struct {
	after  time.Duration
	events []gpu.HealthEvent
}

func TestFoldHealthScenarios(t *testing.T) {
	thermalCrit := gpu.HealthEvent{Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical, Value: 96}
	xidRec := gpu.HealthEvent{Kind: gpu.HealthXIDRecoverable, Severity: gpu.SeverityWarn, XID: 31}
	xidFatal := gpu.HealthEvent{Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical, XID: 79}

	cases := []struct {
		name      string
		steps     []foldStep
		unhealthy bool
		// bounds on the final score (inclusive)
		atLeast, atMost float64
	}{
		{
			name: "single-fatal-xid-crosses-immediately",
			steps: []foldStep{
				{after: time.Minute, events: []gpu.HealthEvent{xidFatal}},
			},
			unhealthy: true,
			atLeast:   healthFloor, atMost: xidFatalPenalty,
		},
		{
			name: "recover-after-xid",
			// One fatal XID, then an hour of quiet decay: six half-lives
			// pull the score from 0.10 back above the threshold.
			steps: []foldStep{
				{after: time.Minute, events: []gpu.HealthEvent{xidFatal}},
				{after: time.Minute + time.Hour, events: nil},
			},
			unhealthy: false,
			atLeast:   0.9, atMost: 1,
		},
		{
			name: "sustained-thermal-grinds-below-threshold",
			// Critical thermal throttling every minute: the 0.75 penalty
			// outruns one minute of decay and the node goes unhealthy.
			steps: []foldStep{
				{after: 1 * time.Minute, events: []gpu.HealthEvent{thermalCrit}},
				{after: 2 * time.Minute, events: []gpu.HealthEvent{thermalCrit}},
				{after: 3 * time.Minute, events: []gpu.HealthEvent{thermalCrit}},
				{after: 4 * time.Minute, events: []gpu.HealthEvent{thermalCrit, xidRec}},
				{after: 5 * time.Minute, events: []gpu.HealthEvent{thermalCrit}},
			},
			unhealthy: true,
			atLeast:   healthFloor, atMost: UnhealthyBelow,
		},
		{
			name: "flapping-warns-stay-healthy",
			// A warn-grade blip every ten minutes is fully absorbed by
			// decay: the node must not oscillate across the threshold.
			steps: []foldStep{
				{after: 10 * time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn}}},
				{after: 20 * time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthPower, Severity: gpu.SeverityWarn}}},
				{after: 30 * time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn}}},
				{after: 40 * time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthPower, Severity: gpu.SeverityWarn}}},
			},
			unhealthy: false,
			atLeast:   0.8, atMost: 1,
		},
		{
			name: "slowdown-uses-observed-fraction",
			steps: []foldStep{
				{after: time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthSlowdown, Value: 0.6}}},
			},
			unhealthy: false,
			atLeast:   0.6, atMost: 0.6,
		},
		{
			name: "slowdown-clamped-at-floor",
			// A wild 1% throughput sample cuts by SlowdownFloor, not 0.01.
			steps: []foldStep{
				{after: time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthSlowdown, Value: 0.01}}},
			},
			unhealthy: false,
			atLeast:   slowdownFloor, atMost: slowdownFloor,
		},
		{
			name: "info-events-are-free",
			steps: []foldStep{
				{after: time.Minute, events: []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityInfo}}},
			},
			unhealthy: false,
			atLeast:   1, atMost: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := foldSeq(tc.steps)
			if got < tc.atLeast || got > tc.atMost {
				t.Fatalf("final score %v outside [%v, %v]", got, tc.atLeast, tc.atMost)
			}
			if (got < UnhealthyBelow) != tc.unhealthy {
				t.Fatalf("final score %v: unhealthy=%v, want %v", got, got < UnhealthyBelow, tc.unhealthy)
			}
		})
	}
}

func TestFoldHealthProperties(t *testing.T) {
	ev := gpu.HealthEvent{Kind: gpu.HealthXIDRecoverable, Severity: gpu.SeverityWarn}

	t.Run("zero-prevAt-starts-at-one", func(t *testing.T) {
		if got := FoldHealth(0.2, time.Time{}, healthEpoch, nil); got != 1 {
			t.Fatalf("fold with zero prevAt = %v, want 1 (prev is ignored without history)", got)
		}
	})
	t.Run("events-only-lower", func(t *testing.T) {
		// With no elapsed time, any event batch is monotonically
		// non-increasing in the previous score.
		at := healthEpoch.Add(time.Minute)
		prev := 0.9
		if got := FoldHealth(prev, healthEpoch.Add(time.Minute-time.Nanosecond), at, []gpu.HealthEvent{ev}); got > prev {
			t.Fatalf("fold raised %v to %v with a penalty event", prev, got)
		}
	})
	t.Run("decay-is-monotonic-in-elapsed-time", func(t *testing.T) {
		prev, prevAt := 0.3, healthEpoch
		last := prev
		for _, d := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour, 24 * time.Hour} {
			got := FoldHealth(prev, prevAt, prevAt.Add(d), nil)
			if got < last {
				t.Fatalf("decay over %v yields %v, below %v at a shorter gap", d, got, last)
			}
			if got > 1 {
				t.Fatalf("decay overshot 1: %v", got)
			}
			last = got
		}
		if halfway := FoldHealth(prev, prevAt, prevAt.Add(healthHalfLife), nil); halfway < 0.64 || halfway > 0.66 {
			t.Fatalf("one half-life from 0.3 = %v, want ~0.65", halfway)
		}
	})
	t.Run("floor-holds", func(t *testing.T) {
		events := make([]gpu.HealthEvent, 50)
		for i := range events {
			events[i] = gpu.HealthEvent{Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical}
		}
		if got := FoldHealth(1, healthEpoch, healthEpoch.Add(time.Minute), events); got != healthFloor {
			t.Fatalf("50 fatal XIDs fold to %v, want the floor %v", got, healthFloor)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		events := []gpu.HealthEvent{ev, {Kind: gpu.HealthThermal, Severity: gpu.SeverityCritical}}
		a := FoldHealth(0.7, healthEpoch, healthEpoch.Add(3*time.Minute), events)
		b := FoldHealth(0.7, healthEpoch, healthEpoch.Add(3*time.Minute), events)
		if a != b {
			t.Fatalf("identical folds diverge: %v vs %v", a, b)
		}
	})
}

func TestFakeHealthSourceDrains(t *testing.T) {
	src := gpu.NewFakeHealthSource()
	if got := src.CollectHealthEvents(); len(got) != 0 {
		t.Fatalf("empty source returned %d events", len(got))
	}
	src.Inject(
		gpu.HealthEvent{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn},
		gpu.HealthEvent{Kind: gpu.HealthXIDFatal, Severity: gpu.SeverityCritical, XID: 79},
	)
	src.Inject(gpu.HealthEvent{Kind: gpu.HealthSlowdown, Value: 0.5})
	got := src.CollectHealthEvents()
	if len(got) != 3 {
		t.Fatalf("collected %d events, want 3", len(got))
	}
	if got[0].Kind != gpu.HealthThermal || got[1].XID != 79 || got[2].Value != 0.5 {
		t.Fatalf("events out of injection order: %+v", got)
	}
	if again := src.CollectHealthEvents(); len(again) != 0 {
		t.Fatalf("second collection returned %d events, want 0 (drained)", len(again))
	}
}
