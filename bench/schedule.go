package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// opKind names what one scheduled operation does.
type opKind uint8

const (
	opBeat     opKind = iota // background heartbeat of one node
	opSubmit                 // placeable interactive job
	opBacklog                // unplaceable job that stays queued
	opDepart                 // scheduled departure of the node hosting the oldest job
	opRejoin                 // a departed node registers again
	opComplete               // a node reports its job completed
	opAdopt                  // after a failover: beat, re-register, beat
	opPoll                   // follow-up GET for a submit or a migration not yet running
)

var opNames = [...]string{"beat", "submit", "backlog", "depart", "rejoin", "complete", "adopt", "poll"}

// op is one entry of the open-loop schedule. due is measured from the
// start of the measured window, so warm-up operations are negative.
type op struct {
	due  time.Duration
	kind opKind
	node int    // beat, rejoin, complete, adopt
	seq  int    // submit, backlog: index into the job stream
	job  string // complete, poll
	// poll only: what is being waited for.
	origin time.Duration // due time of the submit or depart that started it
	from   string        // migration: the node the job must have left
	wait   time.Duration // current back-off
	// held: a completion whose job has already stopped on the node and
	// whose report is waiting for a leader to report to.
	held bool
}

// owed reports whether the operation finishes something the window
// began, and so must run even after the window is over.
func (o op) owed() bool { return o.kind == opPoll || o.held }

// churnParams is the traffic mix of one open-loop workload. Rates are
// per second; durations scale with the window so a shorter run keeps the
// same shape.
type churnParams struct {
	nodes      int
	warmup     time.Duration
	window     time.Duration
	submitRate float64
	beatRate   float64
	departRate float64
	backlog    int
}

// buildSchedule lays out every operation whose time is known before the
// run: Poisson submits, evenly spaced beats over a seeded node order,
// evenly spaced departures, and the backlog at the start of warm-up.
// The same seed gives the same slice, element for element.
func buildSchedule(seed int64, p churnParams) []op {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	start, end := -p.warmup, p.window

	for i := 0; i < p.backlog; i++ {
		ops = append(ops, op{due: start, kind: opBacklog, seq: i})
	}
	if p.submitRate > 0 {
		// A Poisson process seen over a fixed span is its count, Poisson
		// distributed, and that many independent uniform arrival times. The
		// count is pinned at its mean, so seeds differ in when jobs arrive
		// (bursts and gaps included) and not in how many there are: every
		// per-operation figure divides by the same number on every seed.
		n := int(p.submitRate * (end - start).Seconds())
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = start + time.Duration(rng.Int63n(int64(end-start)))
		}
		slices.Sort(at)
		for seq, t := range at {
			ops = append(ops, op{due: t, kind: opSubmit, seq: seq})
		}
	}
	if p.beatRate > 0 {
		order := rng.Perm(p.nodes)
		gap := time.Duration(float64(time.Second) / p.beatRate)
		phase := time.Duration(rng.Int63n(int64(gap)))
		for i, t := 0, start+phase; t < end; i, t = i+1, t+gap {
			ops = append(ops, op{due: t, kind: opBeat, node: order[i%p.nodes]})
		}
	}
	if p.departRate > 0 {
		gap := time.Duration(float64(time.Second) / p.departRate)
		phase := time.Duration(rng.Int63n(int64(gap)))
		for t := start + phase; t < end; t += gap {
			ops = append(ops, op{due: t, kind: opDepart})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// scheduleText renders a schedule one operation per line; two schedules
// are the same exactly when their texts are.
func scheduleText(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%d %s node=%d seq=%d\n", o.due.Nanoseconds(), opNames[o.kind], o.node, o.seq)
	}
	return b.String()
}

// opHeap orders operations by due time; equal times keep insertion order.
type opHeap struct {
	ops []op
	ord []uint64
	n   uint64
}

func (h *opHeap) Len() int { return len(h.ops) }
func (h *opHeap) Less(i, j int) bool {
	if h.ops[i].due != h.ops[j].due {
		return h.ops[i].due < h.ops[j].due
	}
	return h.ord[i] < h.ord[j]
}
func (h *opHeap) Swap(i, j int) {
	h.ops[i], h.ops[j] = h.ops[j], h.ops[i]
	h.ord[i], h.ord[j] = h.ord[j], h.ord[i]
}
func (h *opHeap) Push(x any) { h.ops = append(h.ops, x.(op)); h.ord = append(h.ord, h.n); h.n++ }
func (h *opHeap) Pop() any {
	last := len(h.ops) - 1
	o := h.ops[last]
	h.ops, h.ord = h.ops[:last], h.ord[:last]
	return o
}

// dispatcher hands the schedule to the client goroutines in due order:
// whichever connection is free takes the next operation once its time
// has come. Clients push follow-ups (polls, completions, rejoins) as the
// run creates them. Work with no due time of its own (the fleet coming
// back after a failover) waits in spare and fills the gaps: it runs as
// fast as the connections allow without holding up the timed schedule.
type dispatcher struct {
	t0 time.Time // start of the measured window

	mu       sync.Mutex
	heap     opHeap
	spare    []op
	busy     int  // clients inside an operation (they may still push)
	draining bool // window over: nothing due after end starts any more
	end      time.Duration
	wake     chan struct{} // a push may have moved the earliest due time
	over     chan struct{} // closed by drain
}

func newDispatcher(t0 time.Time, base []op) *dispatcher {
	d := &dispatcher{t0: t0, wake: make(chan struct{}, 1), over: make(chan struct{})}
	d.heap.ops = append(d.heap.ops, base...)
	d.heap.ord = make([]uint64, len(base))
	for i := range base {
		d.heap.ord[i] = uint64(i)
	}
	d.heap.n = uint64(len(base))
	heap.Init(&d.heap)
	return d
}

// since is the schedule clock: time elapsed since the window started.
func (d *dispatcher) since() time.Duration { return time.Since(d.t0) }

func (d *dispatcher) push(o op) {
	d.mu.Lock()
	if d.draining && !o.owed() && o.due >= d.end {
		d.mu.Unlock()
		return
	}
	heap.Push(&d.heap, o)
	d.mu.Unlock()
	d.nudge()
}

// pushSpare queues gap-filling work.
func (d *dispatcher) pushSpare(ops []op) {
	d.mu.Lock()
	d.spare = append(d.spare, ops...)
	d.mu.Unlock()
	d.nudge()
}

func (d *dispatcher) nudge() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// drain ends the window at offset end: whatever was due before it still
// runs (the two connections may be a few operations behind), follow-ups
// due later are dropped, and what is owed always runs: polls finish
// measurements the window began, held reports finish jobs it ended.
func (d *dispatcher) drain(end time.Duration) {
	d.mu.Lock()
	d.draining = true
	kept := opHeap{n: d.heap.n}
	for i, o := range d.heap.ops {
		if o.owed() || o.due < end {
			kept.ops, kept.ord = append(kept.ops, o), append(kept.ord, d.heap.ord[i])
		}
	}
	heap.Init(&kept)
	d.heap = kept
	d.end = end
	d.mu.Unlock()
	close(d.over)
}

// next blocks until an operation is ready and returns it; ok is false
// once the window is over and nothing that belongs to it is left. The
// caller must call done after executing the operation.
func (d *dispatcher) next() (o op, ok bool) {
	for {
		d.mu.Lock()
		wait := time.Second
		switch {
		case d.heap.Len() > 0 && d.heap.ops[0].due <= d.since():
			o = heap.Pop(&d.heap).(op)
			d.busy++
			d.mu.Unlock()
			return o, true
		case len(d.spare) > 0:
			o, d.spare = d.spare[0], d.spare[1:]
			d.busy++
			d.mu.Unlock()
			return o, true
		case d.heap.Len() > 0:
			wait = d.heap.ops[0].due - d.since()
		case d.draining && d.busy == 0:
			d.mu.Unlock()
			return op{}, false
		}
		draining := d.draining
		d.mu.Unlock()
		if draining {
			// Others may still push polls; look again shortly.
			time.Sleep(min(wait, 5*time.Millisecond))
			continue
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-d.wake:
		case <-d.over:
		}
		timer.Stop()
	}
}

func (d *dispatcher) done() {
	d.mu.Lock()
	d.busy--
	d.mu.Unlock()
}
