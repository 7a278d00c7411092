package netsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func campus() *Network {
	n := New(10 * Gbps)
	n.AddNode(NodeLink{Name: "a", Access: 1 * Gbps, Latency: 200 * time.Microsecond})
	n.AddNode(NodeLink{Name: "b", Access: 1 * Gbps, Latency: 200 * time.Microsecond})
	n.AddNode(NodeLink{Name: "c", Access: 1 * Gbps, Latency: 300 * time.Microsecond})
	return n
}

func TestSingleFlowRateIsAccessLimited(t *testing.T) {
	n := campus()
	f, err := n.StartFlow("a", "b", 1e9/8, TrafficCheckpoint, t0) // 1 Gbit
	if err != nil {
		t.Fatal(err)
	}
	if f.Rate != 1*Gbps {
		t.Fatalf("Rate = %v, want 1 Gbps (access-limited)", f.Rate)
	}
	// 1 Gbit at 1 Gbps = 1 s, plus 400 µs path latency.
	want := time.Second + 400*time.Microsecond
	if got := f.Duration(); got != want {
		t.Fatalf("Duration = %v, want %v", got, want)
	}
}

func TestConcurrentFlowsShareUplink(t *testing.T) {
	n := campus()
	f1, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, t0)
	f2, _ := n.StartFlow("a", "c", 1000, TrafficCheckpoint, t0)
	if f1.Rate != 1*Gbps {
		t.Fatalf("first flow rate = %v, want full access", f1.Rate)
	}
	if f2.Rate != 0.5*Gbps {
		t.Fatalf("second flow rate = %v, want half access (2 flows on a's uplink)", f2.Rate)
	}
}

func TestBackboneContention(t *testing.T) {
	// Backbone of 1 Gbps with fat access links: flows contend on backbone.
	n := New(1 * Gbps)
	for _, name := range []string{"a", "b", "c", "d"} {
		n.AddNode(NodeLink{Name: name, Access: 10 * Gbps})
	}
	f1, _ := n.StartFlow("a", "b", 1000, TrafficMigration, t0)
	f2, _ := n.StartFlow("c", "d", 1000, TrafficMigration, t0)
	if f1.Rate != 1*Gbps {
		t.Fatalf("f1 rate = %v", f1.Rate)
	}
	if f2.Rate != 0.5*Gbps {
		t.Fatalf("f2 rate = %v, want backbone/2", f2.Rate)
	}
}

func TestFinishFlowReleasesShare(t *testing.T) {
	n := campus()
	f1, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, t0)
	if err := n.FinishFlow(f1, t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	f2, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, t0.Add(time.Second))
	if f2.Rate != 1*Gbps {
		t.Fatalf("rate after release = %v, want full access", f2.Rate)
	}
}

func TestFinishFlowTwiceFails(t *testing.T) {
	n := campus()
	f, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, t0)
	if err := n.FinishFlow(f, t0); err != nil {
		t.Fatal(err)
	}
	if err := n.FinishFlow(f, t0); !errors.Is(err, ErrFlowDone) {
		t.Fatalf("double finish err = %v, want ErrFlowDone", err)
	}
}

func TestUnknownNodeRejected(t *testing.T) {
	n := campus()
	if _, err := n.StartFlow("a", "zzz", 1, TrafficCheckpoint, t0); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, err := n.StartFlow("zzz", "a", 1, TrafficCheckpoint, t0); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTransferConvenience(t *testing.T) {
	n := campus()
	end, err := n.Transfer("a", "b", 1e9/8, TrafficMigration, t0)
	if err != nil {
		t.Fatal(err)
	}
	want := t0.Add(time.Second + 400*time.Microsecond)
	if !end.Equal(want) {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if got := n.Accountant().TotalBytes(TrafficMigration); got != 1e9/8 {
		t.Fatalf("accounted bytes = %d", got)
	}
	// No flow left active: a fresh one gets the whole 1 Gbps link.
	if f, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, end); f.Rate != 1*Gbps {
		t.Fatalf("Transfer left a flow active: fresh flow rate = %v", f.Rate)
	}
}

func TestZeroByteTransfer(t *testing.T) {
	n := campus()
	f, err := n.StartFlow("a", "b", 0, TrafficCheckpoint, t0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Duration() != 400*time.Microsecond {
		t.Fatalf("zero-byte duration = %v, want latency only", f.Duration())
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	n := campus()
	f, err := n.StartFlow("a", "b", -100, TrafficCheckpoint, t0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Bytes != 0 {
		t.Fatalf("Bytes = %d, want 0", f.Bytes)
	}
}

func TestAddNodeReplacesLink(t *testing.T) {
	n := campus()
	n.AddNode(NodeLink{Name: "a", Access: 10 * Gbps})
	f, _ := n.StartFlow("a", "b", 1000, TrafficCheckpoint, t0)
	if f.Rate != 1*Gbps { // now limited by b's 1 Gbps downlink
		t.Fatalf("rate = %v, want 1 Gbps", f.Rate)
	}
}

func TestAccountantTotals(t *testing.T) {
	a := NewAccountant()
	a.Record(t0, t0.Add(time.Second), TrafficCheckpoint, 100)
	a.Record(t0, t0.Add(time.Second), TrafficMigration, 50)
	a.Record(t0, t0.Add(time.Second), TrafficCheckpoint, 25)
	if got := a.TotalBytes(TrafficCheckpoint); got != 125 {
		t.Fatalf("checkpoint total = %d, want 125", got)
	}
	if got := a.TotalBytes(""); got != 175 {
		t.Fatalf("all total = %d, want 175", got)
	}
}

func TestBytesInWindowProration(t *testing.T) {
	a := NewAccountant()
	// 1000 bytes transferred evenly over [t0, t0+10s].
	a.Record(t0, t0.Add(10*time.Second), TrafficCheckpoint, 1000)
	// Window covering the middle 5 s should see half the bytes.
	got := a.BytesInWindow(TrafficCheckpoint, t0.Add(2500*time.Millisecond), t0.Add(7500*time.Millisecond))
	if got != 500 {
		t.Fatalf("prorated bytes = %d, want 500", got)
	}
	// Disjoint window sees nothing.
	if got := a.BytesInWindow(TrafficCheckpoint, t0.Add(time.Hour), t0.Add(2*time.Hour)); got != 0 {
		t.Fatalf("disjoint window bytes = %d, want 0", got)
	}
}

func TestInstantaneousRecordCountsOnce(t *testing.T) {
	a := NewAccountant()
	a.Record(t0, t0, TrafficCheckpoint, 42)
	if got := a.BytesInWindow(TrafficCheckpoint, t0, t0.Add(time.Second)); got != 42 {
		t.Fatalf("instantaneous bytes = %d, want 42", got)
	}
	if got := a.BytesInWindow(TrafficCheckpoint, t0.Add(time.Second), t0.Add(2*time.Second)); got != 0 {
		t.Fatalf("bytes outside window = %d, want 0", got)
	}
}

func TestWindowUtilization(t *testing.T) {
	a := NewAccountant()
	// 1 Gbit over 1 s against a 10 Gbps capacity = 10% utilization.
	a.Record(t0, t0.Add(time.Second), TrafficCheckpoint, 1e9/8)
	u := a.WindowUtilization(TrafficCheckpoint, 10*Gbps, t0, t0.Add(time.Second))
	if math.Abs(u-0.10) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.10", u)
	}
}

func TestWindowUtilizationDegenerate(t *testing.T) {
	a := NewAccountant()
	if u := a.WindowUtilization(TrafficCheckpoint, 10*Gbps, t0, t0); u != 0 {
		t.Fatalf("zero window utilization = %v", u)
	}
	if u := a.WindowUtilization(TrafficCheckpoint, 0, t0, t0.Add(time.Second)); u != 0 {
		t.Fatalf("zero capacity utilization = %v", u)
	}
}

func TestPeakWindowUtilization(t *testing.T) {
	a := NewAccountant()
	// Quiet hour, then a burst: peak must reflect the burst window.
	a.Record(t0, t0.Add(time.Hour), TrafficCheckpoint, 1000) // trickle
	burst := t0.Add(2 * time.Hour)
	a.Record(burst, burst.Add(time.Minute), TrafficCheckpoint, int64(1e9)) // 8 Gbit in 1 min
	peak := a.PeakWindowUtilization(TrafficCheckpoint, 10*Gbps, time.Minute, time.Minute)
	// 8e9 bits / (1e10 * 60) ≈ 0.0133
	if peak < 0.012 || peak > 0.015 {
		t.Fatalf("peak = %v, want ≈0.0133", peak)
	}
}

func TestPeakWindowUtilizationEmpty(t *testing.T) {
	a := NewAccountant()
	if p := a.PeakWindowUtilization(TrafficCheckpoint, Gbps, time.Minute, time.Minute); p != 0 {
		t.Fatalf("empty peak = %v", p)
	}
}

// Property: a flow's duration is monotone non-decreasing in transfer size.
func TestDurationMonotoneProperty(t *testing.T) {
	f := func(b1, b2 uint32) bool {
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		n := campus()
		f1, err1 := n.StartFlow("a", "b", int64(b1), TrafficCheckpoint, t0)
		if err1 != nil {
			return false
		}
		_ = n.FinishFlow(f1, t0)
		f2, err2 := n.StartFlow("a", "b", int64(b2), TrafficCheckpoint, t0)
		if err2 != nil {
			return false
		}
		return f1.Duration() <= f2.Duration()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: bytes accounted in any window never exceed the total.
func TestWindowNeverExceedsTotalProperty(t *testing.T) {
	f := func(sizes []uint16, offsetSec uint8, windowSec uint8) bool {
		a := NewAccountant()
		var total int64
		for i, s := range sizes {
			start := t0.Add(time.Duration(i) * time.Second)
			a.Record(start, start.Add(time.Second), TrafficCheckpoint, int64(s))
			total += int64(s)
		}
		from := t0.Add(time.Duration(offsetSec) * time.Second)
		to := from.Add(time.Duration(windowSec) * time.Second)
		return a.BytesInWindow(TrafficCheckpoint, from, to) <= total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
