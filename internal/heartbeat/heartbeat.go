// Package heartbeat implements GPUnion's failure detector: provider
// agents report periodically, and a node that misses a configurable
// number of consecutive beats (three, per §3.5) is marked unavailable,
// triggering workload migration.
//
// Emergency departures are *not announced* — heartbeat loss is the only
// signal — so the monitor distinguishes "announced departure" (the agent
// said goodbye; stop expecting beats) from "silent loss".
package heartbeat

import (
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
// Beat records arrivals, Sweep(now) evaluates deadlines. This makes the
// monitor equally usable under real and simulated clocks.
type Monitor struct {
	mu        sync.Mutex
	interval  time.Duration
	threshold int
	nodes     map[string]*nodeBeat
}

type nodeBeat struct {
	lastBeat time.Time
	// suspended nodes announced a departure/pause; no beats expected.
	suspended bool
	// down marks nodes already reported unreachable (avoid re-reporting).
	down bool
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
		nodes:     make(map[string]*nodeBeat),
	}
}

// Track starts monitoring a node as of now (registration time counts as
// a beat).
func (m *Monitor) Track(nodeID string, now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nodes[nodeID] = &nodeBeat{lastBeat: now}
}

// Beat records a heartbeat. Unknown nodes are ignored (the coordinator
// asks them to re-register). A beat from a suspended or down node
// revives it; Sweep callers learn about revivals via Returned.
func (m *Monitor) Beat(nodeID string, now time.Time) (known bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	nb, ok := m.nodes[nodeID]
	if !ok {
		return false
	}
	nb.lastBeat = now
	nb.suspended = false
	nb.down = false
	return true
}

// Suspend marks a node as having announced a departure or pause: beats
// are no longer expected and the node will not be reported lost.
func (m *Monitor) Suspend(nodeID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if nb, ok := m.nodes[nodeID]; ok {
		nb.suspended = true
	}
}

// Lost returns the nodes newly detected unreachable as of now: tracked,
// not suspended, not previously reported, and silent for at least
// threshold × interval. Each lost node is reported exactly once until it
// beats again.
func (m *Monitor) Lost(now time.Time) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	deadline := time.Duration(m.threshold) * m.interval
	var lost []string
	for id, nb := range m.nodes {
		if nb.suspended || nb.down {
			continue
		}
		if now.Sub(nb.lastBeat) >= deadline {
			nb.down = true
			lost = append(lost, id)
		}
	}
	sortStrings(lost)
	return lost
}

// sortStrings is a tiny insertion sort to avoid importing sort for a
// usually-tiny slice in a hot sweep path.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
