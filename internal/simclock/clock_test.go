package simclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func TestSimNowStartsAtEpoch(t *testing.T) {
	s := NewSim(epoch)
	if !s.Now().Equal(epoch) {
		t.Fatalf("Now() = %v, want %v", s.Now(), epoch)
	}
}

func TestSimAdvanceMovesTime(t *testing.T) {
	s := NewSim(epoch)
	s.Advance(90 * time.Second)
	want := epoch.Add(90 * time.Second)
	if !s.Now().Equal(want) {
		t.Fatalf("Now() = %v, want %v", s.Now(), want)
	}
}

func TestSimAfterFuncFiresInOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	s.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	s.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	s.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	s.Advance(5 * time.Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", order)
	}
}

func TestSimAfterFuncEqualDeadlinesFireInCreationOrder(t *testing.T) {
	s := NewSim(epoch)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	s.Advance(time.Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSimTimerStopPreventsFiring(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	tm := s.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true before firing")
	}
	s.Advance(2 * time.Second)
	if fired {
		t.Fatal("timer fired after Stop")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
}

func TestSimTimerStopAfterFire(t *testing.T) {
	s := NewSim(epoch)
	tm := s.AfterFunc(time.Second, func() {})
	s.Advance(2 * time.Second)
	if tm.Stop() {
		t.Fatal("Stop() after fire = true, want false")
	}
}

func TestSimAdvanceDoesNotFireFutureTimers(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.AfterFunc(10*time.Second, func() { fired = true })
	s.Advance(9 * time.Second)
	if fired {
		t.Fatal("timer fired early")
	}
	s.Advance(time.Second)
	if !fired {
		t.Fatal("timer did not fire at deadline")
	}
}

func TestSimCallbackSchedulingCascades(t *testing.T) {
	s := NewSim(epoch)
	var fires []time.Time
	var tick func()
	tick = func() {
		fires = append(fires, s.Now())
		if len(fires) < 4 {
			s.AfterFunc(time.Minute, tick)
		}
	}
	s.AfterFunc(time.Minute, tick)
	s.Advance(time.Hour)
	if len(fires) != 4 {
		t.Fatalf("fires = %d, want 4", len(fires))
	}
	for i, ft := range fires {
		want := epoch.Add(time.Duration(i+1) * time.Minute)
		if !ft.Equal(want) {
			t.Fatalf("fire %d at %v, want %v", i, ft, want)
		}
	}
	if !s.Now().Equal(epoch.Add(time.Hour)) {
		t.Fatalf("clock ended at %v, want epoch+1h", s.Now())
	}
}

func TestSimNegativeDelayFiresImmediatelyOnAdvance(t *testing.T) {
	s := NewSim(epoch)
	fired := false
	s.AfterFunc(-time.Second, func() { fired = true })
	s.Advance(0)
	if !fired {
		t.Fatal("negative-delay timer did not fire")
	}
}

func TestSimConcurrentAfterFunc(t *testing.T) {
	s := NewSim(epoch)
	var wg sync.WaitGroup
	var mu sync.Mutex
	count := 0
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	s.Advance(time.Second)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}

func TestRealClockBasics(t *testing.T) {
	c := Real()
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Second)) {
		t.Fatal("real clock far in the past")
	}
	fired := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(time.Second):
		t.Fatal("real AfterFunc did not fire")
	}
	if tm.Stop() {
		t.Fatal("Stop after fire = true")
	}
}

// Property: advancing by the sum of a sequence of non-negative durations
// always lands the clock at epoch + sum, regardless of how the sequence is
// chunked.
func TestSimAdvanceAdditivityProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		s := NewSim(epoch)
		var total time.Duration
		for _, st := range steps {
			d := time.Duration(st) * time.Millisecond
			total += d
			s.Advance(d)
		}
		return s.Now().Equal(epoch.Add(total))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every timer scheduled within the advance window fires, and
// none scheduled beyond it does.
func TestSimTimerFiringWindowProperty(t *testing.T) {
	f := func(delaysMs []uint16, windowMs uint16) bool {
		s := NewSim(epoch)
		window := time.Duration(windowMs) * time.Millisecond
		firedIdx := make(map[int]bool)
		for i, dm := range delaysMs {
			i := i
			s.AfterFunc(time.Duration(dm)*time.Millisecond, func() { firedIdx[i] = true })
		}
		s.Advance(window)
		for i, dm := range delaysMs {
			inWindow := time.Duration(dm)*time.Millisecond <= window
			if firedIdx[i] != inWindow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSkewedClock(t *testing.T) {
	start := time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)
	sim := NewSim(start)
	sk := NewSkewed(sim)

	if !sk.Now().Equal(start) {
		t.Fatalf("zero-offset Now = %v", sk.Now())
	}
	sk.SetOffset(3 * time.Minute)
	if got := sk.Now(); !got.Equal(start.Add(3 * time.Minute)) {
		t.Fatalf("skewed Now = %v", got)
	}
	sk.SetOffset(-time.Minute)
	if got := sk.Now(); !got.Equal(start.Add(-time.Minute)) {
		t.Fatalf("negative skew Now = %v", got)
	}

	// Relative scheduling is unaffected: a timer armed through the
	// skewed clock fires after the duration on the *inner* clock.
	fired := false
	sk.AfterFunc(10*time.Second, func() { fired = true })
	sim.Advance(9 * time.Second)
	if fired {
		t.Fatal("timer fired early")
	}
	sim.Advance(time.Second)
	if !fired {
		t.Fatal("timer did not fire on the inner clock's schedule")
	}
}
