// Package obs is GPUnion's trace flight recorder: a bounded ring
// buffer of structured, simclock-timestamped trace events covering the
// control plane's interesting moments — job lifecycle transitions
// (submit → place → launch → checkpoint → migrate → terminal),
// leadership changes (lease lost → promotion → first fenced write) and
// chaos fault-injection annotations. It is the one sink: the
// coordinator, every agent and the chaos harness record into it
// directly, and a simulation that must react to an event (a population
// top-up, checkpoint traffic) registers an Observe hook on it.
//
// Recording is cheap and never blocks the platform: a fixed-capacity
// ring overwrites the oldest event when full (the drop count is
// retained). Under the deterministic simulation clock the recorded
// timeline is byte-reproducible across identical seeds, so a chaos
// run's trace export is replayable evidence — an invariant violation
// can be localized against the faults that preceded it.
//
// All Recorder methods are nil-receiver safe: instrumentation sites
// may hold a nil *Recorder and record unconditionally.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"gpunion/internal/simclock"
)

// Lifecycle event kinds, recorded by the coordinator and the agents.
const (
	KindNodeRegistered  = "node.registered"
	KindNodeDeparted    = "node.departed"
	KindNodePaused      = "node.paused"
	KindNodeResumed     = "node.resumed"
	KindNodeUnreachable = "node.unreachable"
	KindNodeReturned    = "node.returned"

	KindJobSubmitted    = "job.submitted"
	KindJobScheduled    = "job.scheduled"
	KindJobStarted      = "job.started"
	KindJobCheckpoint   = "job.checkpointed"
	KindJobMigrated     = "job.migrated"
	KindJobCompleted    = "job.completed"
	KindJobFailed       = "job.failed"
	KindJobRequeued     = "job.requeued"
	KindJobKilled       = "job.killed"
	KindJobMigratedBack = "job.migrated_back"

	// KindJobCheckpointFailed is a periodic checkpoint save that failed
	// while the job ran on (detail checkpoint_error); not a job end.
	KindJobCheckpointFailed = "job.checkpoint_failed"

	KindKillSwitch = "provider.killswitch"

	// Leadership transitions of a replicated coordinator.
	KindLeaderElected = "leader.elected"
	KindLeaderDeposed = "leader.deposed"
)

// Annotation kinds: subsystem moments outside the job and node
// lifecycle.
const (
	// KindFaultInjected annotates one chaos fault delivery.
	KindFaultInjected = "fault.injected"
	// KindInvariantViolation annotates an invariant breach found by a
	// post-fault or periodic audit.
	KindInvariantViolation = "invariant.violation"
	// KindWriteFenced annotates a write rejected by epoch fencing — the
	// first of these after a leader.elected event closes the failover
	// span.
	KindWriteFenced = "write.fenced"
	// KindHealthDegraded annotates a node's health score crossing below
	// the unhealthy threshold (gray-failure detection).
	KindHealthDegraded = "health.degraded"
	// KindPredictiveMigrate annotates one job leaving a degraded node
	// via checkpoint-then-migrate, before the node actually fails.
	KindPredictiveMigrate = "migrate.predictive"
)

// DefaultCapacity is the ring size used when NewRecorder is given a
// non-positive capacity.
const DefaultCapacity = 4096

// Event is one recorded trace point.
type Event struct {
	// Seq is a strictly increasing sequence number: the recorder's
	// total order, independent of timestamp ties.
	Seq uint64 `json:"seq"`
	// Time is the (simulated or wall) clock reading at the event.
	Time time.Time `json:"time"`
	// Kind names the event: one of the Kind* constants.
	Kind string `json:"kind"`
	// Job and Node identify the subjects, when applicable.
	Job  string `json:"job,omitempty"`
	Node string `json:"node,omitempty"`
	// Detail carries event-specific payload as flat strings.
	Detail map[string]string `json:"detail,omitempty"`
}

// Export is the JSON document written by ExportJSON.
type Export struct {
	// Events is the retained window, oldest first.
	Events []Event `json:"events"`
	// Dropped counts events overwritten by ring wrap-around.
	Dropped uint64 `json:"dropped"`
}

// Recorder is the bounded flight recorder. Safe for concurrent use.
type Recorder struct {
	clock simclock.Clock

	mu      sync.Mutex
	buf     []Event // ring storage, len == capacity
	next    int     // next write slot
	full    bool    // ring has wrapped at least once
	seq     uint64  // next sequence number
	dropped uint64  // events overwritten
	hooks   []func(Event)
}

// NewRecorder creates a recorder stamping events from clock. A
// non-positive capacity selects DefaultCapacity.
func NewRecorder(clock simclock.Clock, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{clock: clock, buf: make([]Event, 0, capacity)}
}

// Record appends an event stamped with the recorder's clock.
func (r *Recorder) Record(kind, job, node string, detail map[string]string) {
	if r == nil {
		return
	}
	r.RecordAt(r.clock.Now(), kind, job, node, detail)
}

// RecordAt appends an event with an explicit timestamp: the
// publisher's own clock reading (an agent's clock may be skewed from
// the coordinator's), then runs the Observe hooks.
func (r *Recorder) RecordAt(at time.Time, kind, job, node string, detail map[string]string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	ev := Event{Seq: r.seq, Time: at, Kind: kind, Job: job, Node: node, Detail: detail}
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
	} else {
		r.buf[r.next] = ev
		r.full = true
		r.dropped++
	}
	r.next = (r.next + 1) % cap(r.buf)
	hooks := r.hooks
	r.mu.Unlock()

	for _, fn := range hooks {
		fn(ev)
	}
}

// Observe registers fn to run on every event after it is appended, on
// the recording goroutine, outside the recorder's lock and in
// registration order — so under the single-driver simulation what fn
// does lands at a deterministic point of the timeline, and an event fn
// records in turn follows the one that triggered it. fn must be fast.
// Hooks cannot be removed; register them while assembling.
func (r *Recorder) Observe(fn func(Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// Events returns a copy of the retained window, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dropped reports how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// ExportJSON writes the retained window as a JSON Export document.
// encoding/json emits map keys sorted, so under the simulation clock
// identical runs export identical bytes.
func (r *Recorder) ExportJSON(w io.Writer) error {
	exp := Export{Events: r.Events(), Dropped: r.Dropped()}
	if exp.Events == nil {
		exp.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(exp)
}

// Spans pairs the recorder's events by subject; see the package-level
// Spans function.
func (r *Recorder) Spans(startKind, endKind string) []Span {
	return Spans(r.Events(), startKind, endKind)
}

// Span is one matched start/end event pair.
type Span struct {
	// Job / Node are the pairing subject (From's identifiers).
	Job  string `json:"job,omitempty"`
	Node string `json:"node,omitempty"`
	// From and To are the matched events.
	From Event `json:"from"`
	To   Event `json:"to"`
	// Duration is To.Time − From.Time.
	Duration time.Duration `json:"duration"`
}

// Spans matches each endKind event to the most recent unmatched
// startKind event with the same subject — the job ID when both carry
// one, otherwise the node, otherwise global order — and returns the
// pairs oldest-completion first. Events must be oldest first, as
// Recorder.Events returns them.
func Spans(events []Event, startKind, endKind string) []Span {
	open := make(map[string][]Event)
	var out []Span
	for _, ev := range events {
		key := spanKey(ev)
		switch ev.Kind {
		case startKind:
			open[key] = append(open[key], ev)
		case endKind:
			stack := open[key]
			if len(stack) == 0 {
				continue
			}
			from := stack[len(stack)-1]
			open[key] = stack[:len(stack)-1]
			out = append(out, Span{
				Job: from.Job, Node: from.Node,
				From: from, To: ev,
				Duration: ev.Time.Sub(from.Time),
			})
		}
	}
	return out
}

func spanKey(ev Event) string {
	if ev.Job != "" {
		return "j:" + ev.Job
	}
	if ev.Node != "" {
		return "n:" + ev.Node
	}
	return ""
}

// JobTimeline filters events to one job's, preserving order.
func JobTimeline(events []Event, job string) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Job == job {
			out = append(out, ev)
		}
	}
	return out
}

// Kinds tallies events by kind.
func Kinds(events []Event) map[string]int {
	out := make(map[string]int)
	for _, ev := range events {
		out[ev.Kind]++
	}
	return out
}

// SpanStats summarises a span set's durations.
type SpanStats struct {
	Count          int
	Min, Max, Mean time.Duration
}

// StatSpans computes duration statistics over spans.
func StatSpans(spans []Span) SpanStats {
	st := SpanStats{Count: len(spans)}
	if len(spans) == 0 {
		return st
	}
	ds := make([]time.Duration, len(spans))
	var sum time.Duration
	for i, s := range spans {
		ds[i] = s.Duration
		sum += s.Duration
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	st.Min, st.Max = ds[0], ds[len(ds)-1]
	st.Mean = sum / time.Duration(len(ds))
	return st
}
