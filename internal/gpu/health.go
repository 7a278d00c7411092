package gpu

import (
	"sync"
	"time"
)

// Gray-failure health events. Real fleets fail gray long before they
// fail hard: XID-style driver errors, thermal and power throttling,
// and slow-but-alive devices that pass every liveness check while
// silently stalling their workload. A HealthSource surfaces those
// observations as typed events; the agent ships them to the
// coordinator on heartbeats, where they fold into a per-node health
// score the scheduler and the predictive-migration path consume.

// HealthEventKind names one class of degradation observation.
type HealthEventKind string

// Health event kinds.
const (
	// HealthXIDFatal is an unrecoverable device error (XID classes that
	// require a reset or mark the board bad).
	HealthXIDFatal HealthEventKind = "xid-fatal"
	// HealthXIDRecoverable is a transient device error the driver
	// recovered from (page retirement, corrected ECC storm, …).
	HealthXIDRecoverable HealthEventKind = "xid-recoverable"
	// HealthThermal reports thermal throttling: the device is shedding
	// clocks to stay inside its envelope.
	HealthThermal HealthEventKind = "thermal"
	// HealthPower reports power-brake throttling (PSU or board limit).
	HealthPower HealthEventKind = "power"
	// HealthSlowdown is a throughput observation: the workload on the
	// device is progressing at Value (0..1) of its expected rate with no
	// accompanying error — the classic slow-but-alive gray failure.
	HealthSlowdown HealthEventKind = "slowdown"
)

// HealthSeverity grades an event's impact.
type HealthSeverity string

// Health severities.
const (
	SeverityInfo     HealthSeverity = "info"
	SeverityWarn     HealthSeverity = "warn"
	SeverityCritical HealthSeverity = "critical"
)

// HealthEvent is one degradation observation on one device.
type HealthEvent struct {
	Kind     HealthEventKind `json:"kind"`
	Severity HealthSeverity  `json:"severity"`
	// DeviceID names the affected device ("" for node-wide events).
	DeviceID string `json:"device_id,omitempty"`
	// XID carries the driver error code for the xid-* kinds.
	XID int `json:"xid,omitempty"`
	// Value carries the kind-specific measurement: degrees Celsius for
	// thermal, watts for power, the observed throughput fraction (0..1)
	// for slowdown.
	Value float64 `json:"value,omitempty"`
	// At is the observation instant (the observer's clock).
	At time.Time `json:"at,omitempty"`
	// Message is a free-form human-readable annotation.
	Message string `json:"message,omitempty"`
}

// HealthSource surfaces health events observed since the previous
// collection. Implementations follow the Navarch GPU-manager shape:
// CollectHealthEvents drains the pending observations, so each event
// is reported exactly once per source.
type HealthSource interface {
	CollectHealthEvents() []HealthEvent
}

// FakeHealthSource is the injectable HealthSource used by tests and
// the chaos harness: events queued with Inject are returned — and
// drained — by the next CollectHealthEvents call, in injection order.
type FakeHealthSource struct {
	mu      sync.Mutex
	pending []HealthEvent
}

// NewFakeHealthSource creates an empty fake source.
func NewFakeHealthSource() *FakeHealthSource { return &FakeHealthSource{} }

// Inject queues events for the next collection.
func (f *FakeHealthSource) Inject(events ...HealthEvent) {
	f.mu.Lock()
	f.pending = append(f.pending, events...)
	f.mu.Unlock()
}

// CollectHealthEvents implements HealthSource: it returns the queued
// events and clears the queue.
func (f *FakeHealthSource) CollectHealthEvents() []HealthEvent {
	f.mu.Lock()
	out := f.pending
	f.pending = nil
	f.mu.Unlock()
	return out
}
