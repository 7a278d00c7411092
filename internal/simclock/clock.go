// Package simclock provides a clock abstraction that lets every
// time-dependent component in GPUnion run against either the real wall
// clock or a deterministic simulated clock.
//
// The simulated clock is the backbone of the discrete-event campus
// simulation: a six-week deployment scenario advances in milliseconds of
// real time, and unit tests exercise timeout paths without sleeping.
package simclock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the minimal time source used throughout GPUnion. Components
// must never call time.Now or time.After directly; they accept a Clock so
// that simulations and tests control time.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run after d and returns a handle that can
	// cancel the pending call.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a cancellable pending call created by AfterFunc.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was prevented
	// from firing.
	Stop() bool
}

// Real returns a Clock backed by the system wall clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

// Skewed is a Clock whose Now is offset from an inner clock's by an
// adjustable amount — the clock-skew injection seam. Per-node skew is
// a wall-time discontinuity, not a rate change: absolute time shifts
// by the offset while relative scheduling (AfterFunc)
// keeps the inner clock's cadence, exactly as an NTP step on a node
// moves its wall clock without stretching its timers.
//
// The chaos harness gives every agent its own Skewed wrapper over the
// shared simulated clock and drives SetOffset from the fault schedule;
// production code never constructs one.
type Skewed struct {
	inner Clock
	mu    sync.Mutex
	off   time.Duration
}

// NewSkewed wraps inner with an initially-zero offset.
func NewSkewed(inner Clock) *Skewed {
	return &Skewed{inner: inner}
}

// SetOffset installs a new skew. The next Now jumps by the difference —
// forwards or backwards — which is the discontinuity skew-hardened
// components must absorb.
func (s *Skewed) SetOffset(d time.Duration) {
	s.mu.Lock()
	s.off = d
	s.mu.Unlock()
}

// Now returns the inner clock's time shifted by the offset.
func (s *Skewed) Now() time.Time {
	s.mu.Lock()
	off := s.off
	s.mu.Unlock()
	return s.inner.Now().Add(off)
}

// AfterFunc delegates to the inner clock: durations are unaffected by
// skew.
func (s *Skewed) AfterFunc(d time.Duration, f func()) Timer { return s.inner.AfterFunc(d, f) }

// Sim is a deterministic simulated clock. Time advances only when Advance
// is called; pending timers fire in timestamp order. Sim is safe
// for concurrent use.
type Sim struct {
	mu      sync.Mutex
	now     time.Time
	pending timerHeap
	seq     uint64 // tie-break so equal deadlines fire in creation order
}

// NewSim returns a simulated clock starting at the given time.
func NewSim(start time.Time) *Sim {
	return &Sim{now: start}
}

// Now returns the current simulated time.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// AfterFunc schedules f to run when the clock advances past d. f runs on
// the goroutine that calls Advance.
func (s *Sim) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := &timerEvent{
		when: s.now.Add(d),
		seq:  s.seq,
		fn:   f,
		sim:  s,
	}
	s.seq++
	heap.Push(&s.pending, ev)
	return ev
}

// Advance moves simulated time forward by d, firing every timer whose
// deadline falls inside the window, in order. Timer callbacks run
// synchronously on the caller's goroutine; callbacks may schedule further
// timers, which also fire if they land inside the window.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	target := s.now.Add(d)
	s.mu.Unlock()
	for {
		s.mu.Lock()
		if len(s.pending) == 0 || s.pending[0].when.After(target) {
			if target.After(s.now) {
				s.now = target
			}
			s.mu.Unlock()
			return
		}
		ev := heap.Pop(&s.pending).(*timerEvent)
		if ev.when.After(s.now) {
			s.now = ev.when
		}
		fn := ev.fn
		ev.fired = true
		s.mu.Unlock()
		fn()
	}
}

type timerEvent struct {
	when  time.Time
	seq   uint64
	fn    func()
	index int
	fired bool
	sim   *Sim
}

// Stop cancels the pending timer.
func (ev *timerEvent) Stop() bool {
	ev.sim.mu.Lock()
	defer ev.sim.mu.Unlock()
	if ev.fired || ev.index < 0 {
		return false
	}
	heap.Remove(&ev.sim.pending, ev.index)
	return true
}

// timerHeap is a min-heap ordered by (when, seq).
type timerHeap []*timerEvent

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if h[i].when.Equal(h[j].when) {
		return h[i].seq < h[j].seq
	}
	return h[i].when.Before(h[j].when)
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	ev := x.(*timerEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}
