// Package eventbus provides a small in-process publish/subscribe bus used
// to propagate lifecycle and monitoring events between GPUnion components
// (agent, scheduler, migration engine, metric collectors).
//
// The bus is synchronous: handlers registered with SubscribeFunc run on
// the publisher's goroutine, in registration order, and must be fast —
// monitoring must never interfere with workload execution. A bounded
// history of recent events is kept for inspection.
package eventbus

import (
	"sync"
	"time"
)

// Type identifies a class of event flowing through the bus.
type Type string

// Event types emitted by the platform. Components may define additional
// ad-hoc types; these cover the lifecycle events the monitoring system
// persists.
const (
	NodeRegistered  Type = "node.registered"
	NodeDeparted    Type = "node.departed"
	NodePaused      Type = "node.paused"
	NodeResumed     Type = "node.resumed"
	NodeUnreachable Type = "node.unreachable"
	NodeReturned    Type = "node.returned"

	JobSubmitted    Type = "job.submitted"
	JobScheduled    Type = "job.scheduled"
	JobStarted      Type = "job.started"
	JobCheckpoint   Type = "job.checkpointed"
	JobMigrated     Type = "job.migrated"
	JobCompleted    Type = "job.completed"
	JobFailed       Type = "job.failed"
	JobRequeued     Type = "job.requeued"
	JobKilled       Type = "job.killed"
	JobMigratedBack Type = "job.migrated_back"

	KillSwitch Type = "provider.killswitch"

	// Leadership transitions of a replicated coordinator.
	LeaderElected Type = "leader.elected"
	LeaderDeposed Type = "leader.deposed"
)

// Event is a single occurrence on the bus.
type Event struct {
	Type Type
	// Time is the (possibly simulated) time at which the event occurred.
	Time time.Time
	// Node, Job and Container identify the subjects, when applicable.
	Node      string
	Job       string
	Container string
	// Detail carries free-form, event-specific payload.
	Detail map[string]any
}

// Handler receives events. Handlers registered with SubscribeFunc run
// synchronously on the publisher's goroutine and must be fast.
type Handler func(Event)

// Bus is a concurrency-safe publish/subscribe hub. The zero value is not
// usable; call New.
type Bus struct {
	mu       sync.RWMutex
	handlers []subscribedHandler
	history  []Event
	keep     int
}

type subscribedHandler struct {
	types map[Type]bool
	fn    Handler
}

// New creates a Bus that retains the most recent keepHistory events for
// inspection (0 disables history).
func New(keepHistory int) *Bus {
	return &Bus{keep: keepHistory}
}

// SubscribeFunc registers a synchronous handler for the given types (all
// types if empty). Handlers cannot be unregistered; they are intended for
// component wiring at construction time.
func (b *Bus) SubscribeFunc(fn Handler, types ...Type) {
	h := subscribedHandler{fn: fn}
	if len(types) > 0 {
		h.types = make(map[Type]bool, len(types))
		for _, t := range types {
			h.types[t] = true
		}
	}
	b.mu.Lock()
	b.handlers = append(b.handlers, h)
	b.mu.Unlock()
}

// Publish records ev in the history and runs every matching handler
// before returning. Handlers run outside the bus lock, so one may
// publish in turn.
func (b *Bus) Publish(ev Event) {
	b.mu.Lock()
	if b.keep > 0 {
		b.history = append(b.history, ev)
		if len(b.history) > b.keep {
			b.history = b.history[len(b.history)-b.keep:]
		}
	}
	handlers := b.handlers
	b.mu.Unlock()

	for _, h := range handlers {
		if h.types == nil || h.types[ev.Type] {
			h.fn(ev)
		}
	}
}

// History returns a copy of the retained event history, oldest first.
func (b *Bus) History() []Event {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]Event, len(b.history))
	copy(out, b.history)
	return out
}
