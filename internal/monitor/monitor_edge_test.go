package monitor

import (
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// A NaN sample must not poison a counter: NaN compares false against
// zero, so the sign guard alone would let it through and every later
// Value() and exposition line would read NaN forever.
func TestCounterIgnoresNaN(t *testing.T) {
	var c Counter
	c.Add(2)
	c.Add(math.NaN())
	c.Add(3)
	if c.Value() != 5 {
		t.Fatalf("Value = %v, want 5 (NaN leaked in)", c.Value())
	}
}

// NaN and ±Inf observations are failures to measure, not measurements:
// they must leave count, sum and every bucket untouched.
func TestHistogramIgnoresNaNAndInf(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Observe(0.5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	h.Observe(5)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Sum() != 5.5 {
		t.Fatalf("Sum = %v, want 5.5", h.Sum())
	}
	if h.counts[0] != 1 || h.counts[1] != 1 || h.counts[2] != 0 {
		t.Fatalf("bucket counts = %v, want [1 1 0]", h.counts)
	}
}

// Gauges intentionally accept any value (a gauge mirrors external
// state, including a sensor reporting +Inf), but the exposition must
// still render — document the contract with a test.
func TestGaugeAcceptsInf(t *testing.T) {
	r := NewRegistry()
	g, err := r.Gauge("edge_gauge", "edge", nil)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(math.Inf(1))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "edge_gauge +Inf") {
		t.Fatalf("inf gauge rendering:\n%s", sb.String())
	}
}

// Concurrent Observe against WriteText: the race lane's target. The
// renderer snapshots under the family and histogram locks, so a
// mid-render observation must neither race nor corrupt the output.
func TestConcurrentObserveVsWriteText(t *testing.T) {
	r := NewRegistry()
	h, err := r.Histogram("race_hist", "race", []float64{0.1, 1, 10}, map[string]string{"path": "/x"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Counter("race_total", "race", nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i % 20))
					c.Inc()
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "race_hist_count") {
		t.Fatalf("final exposition malformed:\n%s", sb.String())
	}
}

// Label ordering in the text output is alphabetical by label name,
// regardless of insertion order — scrapes must be diffable.
func TestDeterministicLabelOrdering(t *testing.T) {
	render := func(labels map[string]string) string {
		r := NewRegistry()
		g, err := r.Gauge("ordered", "o", labels)
		if err != nil {
			t.Fatal(err)
		}
		g.Set(1)
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a := render(map[string]string{"zone": "z1", "node": "n1", "device": "gpu0"})
	want := `ordered{device="gpu0",node="n1",zone="z1"} 1`
	if !strings.Contains(a, want) {
		t.Fatalf("label order wrong:\nwant %s\ngot %s", want, a)
	}
	// Many children render sorted by their label-set key.
	r := NewRegistry()
	for _, n := range []string{"n9", "n1", "n5"} {
		g, _ := r.Gauge("multi", "m", map[string]string{"node": n})
		g.Set(1)
	}
	var sb strings.Builder
	_ = r.WriteText(&sb)
	out := sb.String()
	i1 := strings.Index(out, `node="n1"`)
	i5 := strings.Index(out, `node="n5"`)
	i9 := strings.Index(out, `node="n9"`)
	if !(i1 < i5 && i5 < i9) {
		t.Fatalf("children not sorted:\n%s", out)
	}
}
