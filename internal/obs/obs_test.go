package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"gpunion/internal/simclock"
)

var epoch = time.Date(2025, 3, 3, 9, 0, 0, 0, time.UTC)

func TestRecorderOrderAndSeq(t *testing.T) {
	clk := simclock.NewSim(epoch)
	r := NewRecorder(clk, 8)
	for i := 0; i < 5; i++ {
		r.Record("k", fmt.Sprintf("job-%d", i), "", nil)
		clk.Advance(time.Second)
	}
	evs := r.Events()
	if len(evs) != 5 {
		t.Fatalf("want 5 events, got %d", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Errorf("event %d has seq %d", i, ev.Seq)
		}
		if want := epoch.Add(time.Duration(i) * time.Second); !ev.Time.Equal(want) {
			t.Errorf("event %d stamped %v, want %v", i, ev.Time, want)
		}
	}
	if r.Dropped() != 0 {
		t.Errorf("dropped %d without wrap", r.Dropped())
	}
}

func TestRecorderRingWrap(t *testing.T) {
	clk := simclock.NewSim(epoch)
	r := NewRecorder(clk, 4)
	for i := 0; i < 10; i++ {
		r.Record("k", fmt.Sprintf("job-%d", i), "", nil)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 retained, got %d", len(evs))
	}
	// Oldest-first: the last four records, in order.
	for i, ev := range evs {
		if want := fmt.Sprintf("job-%d", 6+i); ev.Job != want {
			t.Errorf("slot %d holds %s, want %s", i, ev.Job, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record("k", "j", "n", nil)
	r.RecordAt(epoch, "k", "j", "n", nil)
	r.Observe(func(Event) { t.Error("hook ran on a nil recorder") })
	if r.Events() != nil || r.Dropped() != 0 {
		t.Error("nil recorder not inert")
	}
}

// TestObserveHook: hooks run synchronously, in registration order, on
// every event from Record and RecordAt in Seq order, and an event a hook
// records in turn lands after the one that triggered it.
func TestObserveHook(t *testing.T) {
	clk := simclock.NewSim(epoch)
	r := NewRecorder(clk, 16)
	var seen []string
	r.Observe(func(ev Event) {
		seen = append(seen, fmt.Sprintf("a:%d:%s", ev.Seq, ev.Kind))
		if ev.Kind == KindJobCompleted {
			r.Record(KindJobSubmitted, "j2", "", nil)
		}
	})
	r.Observe(func(ev Event) { seen = append(seen, fmt.Sprintf("b:%d:%s", ev.Seq, ev.Kind)) })

	r.Record(KindJobSubmitted, "j1", "", nil)
	if len(seen) != 2 {
		t.Fatalf("hooks not run before Record returned: %v", seen)
	}
	r.RecordAt(clk.Now().Add(-time.Minute), KindJobCompleted, "j1", "ws-1", nil)

	want := []string{
		"a:0:job.submitted", "b:0:job.submitted",
		"a:1:job.completed",
		"a:2:job.submitted", "b:2:job.submitted",
		"b:1:job.completed",
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("hook calls\n got %v\nwant %v", seen, want)
	}
	evs := r.Events()
	if len(evs) != 3 || evs[1].Kind != KindJobCompleted || evs[2].Job != "j2" {
		t.Fatalf("nested event out of order: %+v", evs)
	}
	if !evs[1].Time.Equal(epoch.Add(-time.Minute)) {
		t.Errorf("RecordAt stamped %v, want the publisher's reading", evs[1].Time)
	}
}

// TestObserveConcurrent is the -race check: recorders, late hook
// registrations and readers may all race. A hook registered before any
// recorder starts runs exactly once per event.
func TestObserveConcurrent(t *testing.T) {
	const recorders, each = 4, 100
	r := NewRecorder(simclock.Real(), 64)
	var mu sync.Mutex
	calls := 0
	r.Observe(func(Event) { mu.Lock(); calls++; mu.Unlock() })
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(KindJobScheduled, "j", "n", nil)
			}
		}()
		go func() {
			defer wg.Done()
			r.Observe(func(Event) {})
			_ = r.Events()
		}()
	}
	wg.Wait()
	if calls != recorders*each {
		t.Fatalf("first hook ran %d times, want %d", calls, recorders*each)
	}
}

func TestExportJSONDeterministic(t *testing.T) {
	run := func() []byte {
		clk := simclock.NewSim(epoch)
		r := NewRecorder(clk, 8)
		r.Record("fault.injected", "", "ws-1", map[string]string{"kind": "node-crash", "z": "1", "a": "2"})
		clk.Advance(time.Minute)
		r.Record("job.completed", "j1", "ws-2", nil)
		var buf bytes.Buffer
		if err := r.ExportJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("exports differ:\n%s\nvs\n%s", a, b)
	}
	var exp Export
	if err := json.Unmarshal(a, &exp); err != nil {
		t.Fatal(err)
	}
	if len(exp.Events) != 2 || exp.Events[0].Kind != KindFaultInjected {
		t.Fatalf("bad export: %+v", exp)
	}
}

func TestSpansPairingByJobNodeGlobal(t *testing.T) {
	clk := simclock.NewSim(epoch)
	r := NewRecorder(clk, 32)
	// Two interleaved jobs.
	r.Record("job.submitted", "a", "", nil)
	clk.Advance(time.Second)
	r.Record("job.submitted", "b", "", nil)
	clk.Advance(2 * time.Second)
	r.Record("job.completed", "b", "", nil)
	clk.Advance(time.Second)
	r.Record("job.completed", "a", "", nil)
	spans := r.Spans("job.submitted", "job.completed")
	if len(spans) != 2 {
		t.Fatalf("want 2 spans, got %d", len(spans))
	}
	if spans[0].Job != "b" || spans[0].Duration != 2*time.Second {
		t.Errorf("span[0] = %+v", spans[0])
	}
	if spans[1].Job != "a" || spans[1].Duration != 4*time.Second {
		t.Errorf("span[1] = %+v", spans[1])
	}

	// Node pairing when no job is set.
	r2 := NewRecorder(simclock.NewSim(epoch), 8)
	r2.Record("leader.deposed", "", "r1", nil)
	r2.Record("leader.elected", "", "r2", nil) // different node: no pair
	if got := r2.Spans("leader.deposed", "leader.elected"); len(got) != 0 {
		t.Fatalf("cross-node pair matched: %+v", got)
	}

	// Unmatched end events are skipped.
	r3 := NewRecorder(simclock.NewSim(epoch), 8)
	r3.Record("job.completed", "x", "", nil)
	if got := r3.Spans("job.submitted", "job.completed"); len(got) != 0 {
		t.Fatalf("orphan end paired: %+v", got)
	}
}

func TestJobTimelineAndKinds(t *testing.T) {
	clk := simclock.NewSim(epoch)
	r := NewRecorder(clk, 16)
	r.Record("job.submitted", "a", "", nil)
	r.Record("job.submitted", "b", "", nil)
	r.Record("job.completed", "a", "", nil)
	tl := JobTimeline(r.Events(), "a")
	if len(tl) != 2 || tl[0].Kind != "job.submitted" || tl[1].Kind != "job.completed" {
		t.Fatalf("timeline = %+v", tl)
	}
	k := Kinds(r.Events())
	if k["job.submitted"] != 2 || k["job.completed"] != 1 {
		t.Fatalf("kinds = %v", k)
	}
}

func TestStatSpans(t *testing.T) {
	spans := []Span{
		{Duration: time.Second},
		{Duration: 3 * time.Second},
		{Duration: 2 * time.Second},
	}
	st := StatSpans(spans)
	if st.Count != 3 || st.Min != time.Second || st.Max != 3*time.Second || st.Mean != 2*time.Second {
		t.Fatalf("stats = %+v", st)
	}
	if z := StatSpans(nil); z.Count != 0 || z.Mean != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
}

// TestRecorderConcurrent exercises Record vs Events under the race
// detector.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(simclock.NewSim(epoch), 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record("k", fmt.Sprintf("g%d-%d", g, i), "", nil)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = r.Events()
				_ = r.Dropped()
			}
		}
	}()
	wg.Wait()
	close(done)
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	// Seq must stay strictly increasing in the retained window.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
