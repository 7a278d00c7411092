// Package heartbeat implements GPUnion's failure detector: provider
// agents report periodically, and a node that misses a configurable
// number of consecutive beats (three, per §3.5) is marked unavailable,
// triggering workload migration.
//
// The monitor watches members only. Registration admits a node
// (Track); leaving service, announced or detected, ends its watch
// (Forget, or Lost for a silent node). A node out of service comes back
// by registering again, never by beating: Beat refreshes a tracked node
// and ignores any other.
package heartbeat

import (
	"slices"
	"sync"
	"time"
)

// DefaultInterval is the default beat period.
const DefaultInterval = 10 * time.Second

// DefaultMissedThreshold is how many consecutive missed beats mark a
// node unavailable (§3.5: "nodes that miss three consecutive heartbeats
// are marked as unavailable").
const DefaultMissedThreshold = 3

// Monitor tracks per-node heartbeat liveness. It is driven externally:
// Beat records arrivals, Lost(now) evaluates deadlines. This makes the
// monitor equally usable under real and simulated clocks.
type Monitor struct {
	mu        sync.Mutex
	interval  time.Duration
	threshold int
	lastBeat  map[string]time.Time
}

// NewMonitor creates a Monitor. interval <= 0 and threshold <= 0 take
// the defaults.
func NewMonitor(interval time.Duration, threshold int) *Monitor {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if threshold <= 0 {
		threshold = DefaultMissedThreshold
	}
	return &Monitor{
		interval:  interval,
		threshold: threshold,
		lastBeat:  make(map[string]time.Time),
	}
}

// Track starts monitoring a node as of now (registration time counts as
// a beat).
func (m *Monitor) Track(nodeID string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastBeat[nodeID] = now
}

// Beat records a heartbeat from a tracked node. Any other node is
// ignored (the coordinator asks it to re-register).
func (m *Monitor) Beat(nodeID string, now time.Time) (known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lastBeat[nodeID]; !ok {
		return false
	}
	m.lastBeat[nodeID] = now
	return true
}

// Forget stops monitoring a node: it left service, and no beats are
// expected until it registers again.
func (m *Monitor) Forget(nodeID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.lastBeat, nodeID)
}

// Lost returns, sorted, the tracked nodes silent for at least
// threshold × interval as of now, and forgets them: each silent node is
// reported once.
func (m *Monitor) Lost(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	deadline := time.Duration(m.threshold) * m.interval
	var lost []string
	for id, at := range m.lastBeat {
		if now.Sub(at) >= deadline {
			lost = append(lost, id)
			delete(m.lastBeat, id)
		}
	}
	slices.Sort(lost)
	return lost
}
