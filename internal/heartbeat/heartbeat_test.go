package heartbeat

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func TestDefaults(t *testing.T) {
	m := NewMonitor(0, 0)
	if m.interval != DefaultInterval {
		t.Fatalf("interval = %v", m.interval)
	}
}

func TestBeatKeepsNodeAlive(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	// Beat every interval for 10 intervals: never lost.
	for i := 1; i <= 10; i++ {
		now := t0.Add(time.Duration(i) * 10 * time.Second)
		if !m.Beat("n1", now) {
			t.Fatal("known node reported unknown")
		}
		if lost := m.Lost(now); len(lost) != 0 {
			t.Fatalf("lost = %v at beat %d", lost, i)
		}
	}
}

func TestThreeMissedBeatsMarksLost(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	// At 29s: only 2 intervals + change missed — still alive.
	if lost := m.Lost(t0.Add(29 * time.Second)); len(lost) != 0 {
		t.Fatalf("lost early: %v", lost)
	}
	// At exactly 3 intervals: lost.
	lost := m.Lost(t0.Add(30 * time.Second))
	if len(lost) != 1 || lost[0] != "n1" {
		t.Fatalf("lost = %v, want [n1]", lost)
	}
}

func TestLostReportedOnce(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	if lost := m.Lost(t0.Add(time.Minute)); len(lost) != 1 {
		t.Fatalf("first sweep lost = %v", lost)
	}
	if lost := m.Lost(t0.Add(2 * time.Minute)); len(lost) != 0 {
		t.Fatalf("second sweep re-reported: %v", lost)
	}
}

func TestLostNodeIgnoresBeatsUntilTracked(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	_ = m.Lost(t0.Add(time.Minute)) // reported and forgotten
	if m.Beat("n1", t0.Add(2*time.Minute)) {
		t.Fatal("a lost node's beat was accepted")
	}
	if lost := m.Lost(t0.Add(10 * time.Minute)); len(lost) != 0 {
		t.Fatalf("lost node re-reported without re-registering: %v", lost)
	}
	// Re-registration watches it again: it can be lost again later.
	m.Track("n1", t0.Add(10*time.Minute))
	if lost := m.Lost(t0.Add(20 * time.Minute)); len(lost) != 1 {
		t.Fatalf("re-tracked node not re-reportable: %v", lost)
	}
}

func TestForgottenNodeNeverLost(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	m.Forget("n1") // announced departure
	if lost := m.Lost(t0.Add(time.Hour)); len(lost) != 0 {
		t.Fatalf("forgotten node reported lost: %v", lost)
	}
}

func TestTrackAfterForgetResumes(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	m.Forget("n1") // temporary departure
	if m.Beat("n1", t0.Add(time.Hour)) {
		t.Fatal("a forgotten node's beat was accepted")
	}
	m.Track("n1", t0.Add(time.Hour)) // provider returns and registers
	if lost := m.Lost(t0.Add(time.Hour + 29*time.Second)); len(lost) != 0 {
		t.Fatalf("returned node lost early: %v", lost)
	}
	if lost := m.Lost(t0.Add(time.Hour + 30*time.Second)); len(lost) != 1 {
		t.Fatalf("returned node not monitored again: %v", lost)
	}
}

func TestUnknownBeatRejected(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	if m.Beat("ghost", t0) {
		t.Fatal("unknown node beat accepted")
	}
}

func TestMultipleNodesSortedLoss(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	for _, id := range []string{"n3", "n1", "n2"} {
		m.Track(id, t0)
	}
	m.Beat("n2", t0.Add(50*time.Second)) // n2 stays alive
	lost := m.Lost(t0.Add(time.Minute))
	if len(lost) != 2 || lost[0] != "n1" || lost[1] != "n3" {
		t.Fatalf("lost = %v, want [n1 n3]", lost)
	}
}

func TestTrackResetsState(t *testing.T) {
	m := NewMonitor(10*time.Second, 3)
	m.Track("n1", t0)
	_ = m.Lost(t0.Add(time.Minute))
	// Re-registration: fresh tracking state.
	m.Track("n1", t0.Add(2*time.Minute))
	if lost := m.Lost(t0.Add(2*time.Minute + 29*time.Second)); len(lost) != 0 {
		t.Fatalf("re-tracked node lost early: %v", lost)
	}
	if lost := m.Lost(t0.Add(2*time.Minute + 30*time.Second)); len(lost) != 1 {
		t.Fatalf("re-tracked node not reported after silence: %v", lost)
	}
}

// Property: a node beating at least every (threshold-1) intervals is
// never reported lost, regardless of the sweep schedule.
func TestNeverLostWhileBeatingProperty(t *testing.T) {
	f := func(sweepOffsets []uint8) bool {
		const interval = 10 * time.Second
		m := NewMonitor(interval, 3)
		m.Track("n1", t0)
		now := t0
		for i, off := range sweepOffsets {
			// Beat every 2 intervals (less than the 3-interval deadline).
			now = t0.Add(time.Duration(i) * 2 * interval)
			m.Beat("n1", now)
			sweep := now.Add(time.Duration(off%20) * time.Second)
			if sweep.Sub(now) < 3*interval {
				if lost := m.Lost(sweep); len(lost) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
