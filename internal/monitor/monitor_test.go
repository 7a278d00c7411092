package monitor

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored
	if c.Value() != 3.5 {
		t.Fatalf("Value = %v, want 3.5", c.Value())
	}
}

func TestGaugeSet(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Set(3)
	if g.Value() != 3 {
		t.Fatalf("Value = %v", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 5, 10)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Fatalf("Sum = %v", h.Sum())
	}
}

func TestHistogramUnsortedBounds(t *testing.T) {
	h := NewHistogram(10, 1, 5) // constructor sorts
	h.Observe(3)
	h.Observe(7)
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestRegistryCounterReuse(t *testing.T) {
	r := NewRegistry()
	c1, err := r.Counter("jobs_total", "jobs", map[string]string{"state": "done"})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := r.Counter("jobs_total", "jobs", map[string]string{"state": "done"})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("same name+labels produced different counters")
	}
	c3, err := r.Counter("jobs_total", "jobs", map[string]string{"state": "failed"})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c3 {
		t.Fatal("different labels shared a counter")
	}
}

func TestRegistryKindConflict(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Counter("x_total", "x", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Gauge("x_total", "x", nil); err == nil {
		t.Fatal("kind conflict not detected")
	}
}

func TestRegistryInvalidName(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "9lives", "has-dash", "has space", "ünïcode"} {
		if _, err := r.Counter(name, "bad", nil); err == nil {
			t.Errorf("invalid name %q accepted", name)
		}
	}
	for _, name := range []string{"a", "_hidden", "gpu_util_99", "CamelCase"} {
		if _, err := r.Counter(name, "good", nil); err != nil {
			t.Errorf("valid name %q rejected: %v", name, err)
		}
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Counter("gpunion_jobs_total", "Total jobs", map[string]string{"state": "completed"})
	c.Add(7)
	g, _ := r.Gauge("gpunion_gpu_utilization", "GPU utilization", map[string]string{"node": "n1", "device": "gpu0"})
	g.Set(0.67)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP gpunion_jobs_total Total jobs",
		"# TYPE gpunion_jobs_total counter",
		`gpunion_jobs_total{state="completed"} 7`,
		"# TYPE gpunion_gpu_utilization gauge",
		`gpunion_gpu_utilization{device="gpu0",node="n1"} 0.67`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestWriteTextHistogram(t *testing.T) {
	r := NewRegistry()
	h, _ := r.Histogram("sched_latency_seconds", "Scheduling latency", []float64{0.1, 1}, nil)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`sched_latency_seconds_bucket{le="0.1"} 1`,
		`sched_latency_seconds_bucket{le="1"} 2`,
		`sched_latency_seconds_bucket{le="+Inf"} 3`,
		"sched_latency_seconds_sum 5.55",
		"sched_latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n---\n%s", want, out)
		}
	}
}

func TestWriteTextDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		for _, node := range []string{"n3", "n1", "n2"} {
			g, _ := r.Gauge("util", "u", map[string]string{"node": node})
			g.Set(1)
		}
		c, _ := r.Counter("total", "t", nil)
		c.Inc()
		var sb strings.Builder
		_ = r.WriteText(&sb)
		return sb.String()
	}
	if build() != build() {
		t.Fatal("exposition output not deterministic")
	}
}

func TestNoLabelsRendering(t *testing.T) {
	r := NewRegistry()
	c, _ := r.Counter("plain_total", "plain", nil)
	c.Inc()
	var sb strings.Builder
	_ = r.WriteText(&sb)
	if !strings.Contains(sb.String(), "plain_total 1\n") {
		t.Fatalf("unlabelled metric rendering wrong:\n%s", sb.String())
	}
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c, err := r.Counter("hits_total", "hits", map[string]string{"path": "/a"})
				if err != nil {
					t.Error(err)
					return
				}
				c.Inc()
				h, err := r.Histogram("lat", "latency", []float64{1, 10}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				h.Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	c, _ := r.Counter("hits_total", "hits", map[string]string{"path": "/a"})
	if c.Value() != 800 {
		t.Fatalf("counter = %v, want 800", c.Value())
	}
}

// Property: histogram count always equals the number of measurable
// (finite) observations — NaN and ±Inf are dropped by Observe.
func TestHistogramCountProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(0, 1, 100)
		var n uint64
		for _, v := range vals {
			h.Observe(v)
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				n++
			}
		}
		return h.Count() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: labelsKey is order-insensitive and distinguishes values.
func TestLabelsKeyProperty(t *testing.T) {
	f := func(a, b string) bool {
		l1 := map[string]string{"x": a, "y": b}
		l2 := map[string]string{"y": b, "x": a}
		if labelsKey(l1) != labelsKey(l2) {
			return false
		}
		if a != b {
			l3 := map[string]string{"x": b, "y": a}
			if a != b && labelsKey(l1) == labelsKey(l3) && a != b {
				return labelsKey(l1) != labelsKey(l3)
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
