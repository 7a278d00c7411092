// Package monitor is GPUnion's metrics layer: a Prometheus-style
// registry with counters, gauges and histograms, plus the text
// exposition format the paper's "Prometheus metrics exporters" (§3.5)
// would serve. Hardware collectors (GPU telemetry) and application
// collectors (container lifecycle, allocation history) register here,
// and the agent exposes the registry over HTTP.
package monitor

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Metric name validation is intentionally loose: [a-zA-Z_][a-zA-Z0-9_]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// labelsKey renders a deterministic key for a label set.
func labelsKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, labels[k])
	}
	return sb.String()
}

// Counter is a monotonically increasing value.
type Counter struct {
	mu  sync.Mutex
	val float64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative and NaN deltas are ignored
// (counters never decrease, and one bad sample must not poison the
// series — NaN compares false against everything, so it needs its own
// guard).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	c.mu.Lock()
	c.val += v
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.val
}

// Gauge is an arbitrary instantaneous value.
type Gauge struct {
	mu  sync.Mutex
	val float64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.val = v
	g.mu.Unlock()
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.val
}

// Histogram accumulates observations in cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // per-bucket (non-cumulative) counts
	sum    float64
	total  uint64
}

// NewHistogram creates a histogram with the given ascending bucket
// upper bounds (a +Inf bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one observation. NaN and ±Inf observations are
// dropped: a single one would poison the running sum for every future
// scrape, and an infinite latency is a failure to measure, not a
// measurement.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := len(h.bounds)
	for i, b := range h.bounds {
		if v <= b {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += v
	h.total++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// metricKind tags a registered family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is a named metric with labelled children.
type family struct {
	name string
	help string
	kind metricKind

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	labels   map[string]map[string]string // key → label set
	bounds   []float64                    // histogram bucket template
}

// Registry holds metric families and renders the exposition text.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, bounds []float64) (*family, error) {
	if !validName(name) {
		return nil, fmt.Errorf("monitor: invalid metric name %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			return nil, fmt.Errorf("monitor: metric %q re-registered with a different kind", name)
		}
		return f, nil
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     kind,
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		labels:   make(map[string]map[string]string),
		bounds:   bounds,
	}
	r.families[name] = f
	r.order = append(r.order, name)
	return f, nil
}

// Counter returns (creating if needed) the counter with labels.
func (r *Registry) Counter(name, help string, labels map[string]string) (*Counter, error) {
	f, err := r.family(name, help, kindCounter, nil)
	if err != nil {
		return nil, err
	}
	key := labelsKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.counters[key]
	if !ok {
		c = &Counter{}
		f.counters[key] = c
		f.labels[key] = copyLabels(labels)
	}
	return c, nil
}

// Gauge returns (creating if needed) the gauge with labels.
func (r *Registry) Gauge(name, help string, labels map[string]string) (*Gauge, error) {
	f, err := r.family(name, help, kindGauge, nil)
	if err != nil {
		return nil, err
	}
	key := labelsKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	g, ok := f.gauges[key]
	if !ok {
		g = &Gauge{}
		f.gauges[key] = g
		f.labels[key] = copyLabels(labels)
	}
	return g, nil
}

// Histogram returns (creating if needed) the histogram with labels; the
// bucket bounds are fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels map[string]string) (*Histogram, error) {
	f, err := r.family(name, help, kindHistogram, bounds)
	if err != nil {
		return nil, err
	}
	key := labelsKey(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.hists[key]
	if !ok {
		h = NewHistogram(f.bounds...)
		f.hists[key] = h
		f.labels[key] = copyLabels(labels)
	}
	return h, nil
}

func copyLabels(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		out[k] = v
	}
	return out
}

func renderLabels(labels map[string]string, extra ...string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%q", k, labels[k]))
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteText renders the registry in the Prometheus text exposition
// format (v0.0.4), deterministically ordered.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	fams := make(map[string]*family, len(names))
	for _, n := range names {
		fams[n] = r.families[n]
	}
	r.mu.Unlock()

	for _, name := range names {
		f := fams[name]
		typ := map[metricKind]string{kindCounter: "counter", kindGauge: "gauge", kindHistogram: "histogram"}[f.kind]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, typ); err != nil {
			return err
		}
		f.mu.Lock()
		keys := make([]string, 0)
		switch f.kind {
		case kindCounter:
			for k := range f.counters {
				keys = append(keys, k)
			}
		case kindGauge:
			for k := range f.gauges {
				keys = append(keys, k)
			}
		case kindHistogram:
			for k := range f.hists {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		var err error
		for _, k := range keys {
			labels := f.labels[k]
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %g\n", name, renderLabels(labels), f.counters[k].Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %g\n", name, renderLabels(labels), f.gauges[k].Value())
			case kindHistogram:
				err = writeHistogram(w, name, labels, f.hists[k])
			}
			if err != nil {
				f.mu.Unlock()
				return err
			}
		}
		f.mu.Unlock()
	}
	return nil
}

func writeHistogram(w io.Writer, name string, labels map[string]string, h *Histogram) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		le := fmt.Sprintf("le=%q", fmt.Sprintf("%g", b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", name, renderLabels(labels), h.sum); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), h.total)
	return err
}
