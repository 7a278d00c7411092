package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/monitor"
)

// These tests pin the gather rule: a group that has formed commits at
// once, everything else waits the window. They are timing tests on
// purpose and are NOT skipped under -short (the race lane runs them):
// "early" windows are seconds long against sub-second bounds, and "no
// earlier than the window" is a lower bound a slow host only helps.

// gatherRig is a writer with its metrics on a private registry, so a
// test can count fsyncs, groups and gather verdicts.
type gatherRig struct {
	t   *testing.T
	w   *Writer
	dir string
	reg *monitor.Registry
}

func newGatherRig(t *testing.T, opts Options) *gatherRig {
	t.Helper()
	dir := t.TempDir()
	w := openWriter(t, dir, opts)
	reg := monitor.NewRegistry()
	if err := w.Instrument(reg); err != nil {
		t.Fatal(err)
	}
	return &gatherRig{t: t, w: w, dir: dir, reg: reg}
}

// released reads gpunion_wal_group_release_total{reason}.
func (r *gatherRig) released(reason string) float64 {
	r.t.Helper()
	c, err := r.reg.Counter("gpunion_wal_group_release_total", "", map[string]string{"reason": reason})
	if err != nil {
		r.t.Fatal(err)
	}
	return c.Value()
}

func (r *gatherRig) hist(name string) *monitor.Histogram {
	r.t.Helper()
	h, err := r.reg.Histogram(name, "", nil, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	return h
}

func (r *gatherRig) target() int {
	r.w.mu.Lock()
	defer r.w.mu.Unlock()
	return r.w.gatherTarget
}

// waitQueued blocks until n operations sit in the writer's queue.
func (r *gatherRig) waitQueued(n int) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.w.mu.Lock()
		got := len(r.w.waiters)
		r.w.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatalf("queue holds %d operations, want %d", got, n)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// appendTogether runs the operations concurrently, fails the test on
// any error, and returns how long the slowest took.
func (r *gatherRig) appendTogether(ops ...db.Mutation) time.Duration {
	r.t.Helper()
	start := time.Now()
	var wg sync.WaitGroup
	for _, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.w.Append(op); err != nil {
				r.t.Errorf("append of LSN %d: %v", op.LSN, err)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func one(lsn uint64) db.Mutation {
	return nodeMut(lsn, fmt.Sprintf("n%03d", lsn))
}

// segmentLSNs reads one segment file's records.
func segmentLSNs(t *testing.T, dir string, seg int) map[uint64]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, segmentName(seg)))
	if err != nil {
		t.Fatal(err)
	}
	recs, torn := decodeFrames(data)
	if torn {
		t.Fatalf("segment %d has a torn tail", seg)
	}
	got := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		got[r.LSN] = true
	}
	return got
}

// TestGatherReleasesFormedGroup: two appenders are a formed group (the
// target's floor), so they commit together long before a 2 s window
// runs out — one group, one fsync, counted as released "full".
func TestGatherReleasesFormedGroup(t *testing.T) {
	r := newGatherRig(t, Options{GroupWindow: 2 * time.Second})
	if took := r.appendTogether(one(1), one(2)); took > 500*time.Millisecond {
		t.Errorf("a formed group of two waited %v of a 2 s window", took)
	}
	if n := r.hist("gpunion_wal_fsync_seconds").Count(); n != 1 {
		t.Errorf("%d fsyncs for two concurrent appends, want one shared", n)
	}
	if g := r.hist("gpunion_wal_group_batch_size"); g.Count() != 1 || g.Sum() != 2 {
		t.Errorf("group sizes: %d groups totalling %v operations, want one group of 2", g.Count(), g.Sum())
	}
	if full, window := r.released("full"), r.released("window"); full != 1 || window != 0 {
		t.Errorf("released full=%v window=%v, want 1 and 0", full, window)
	}
}

// TestGatherSoloWaitsWindow: an appender that stays alone waits the
// whole window. This is deliberate, not an oversight: the heartbeat
// coalescer's TouchNodes flush commits solo, and the idle beat path's
// measured figures depend on it still paying the window (see
// docs/BENCHMARKS.md, "Measured and deferred" and "Release the group
// when it has formed"). Lowering minGatherTarget to 1 is ROADMAP item 2.
func TestGatherSoloWaitsWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	r := newGatherRig(t, Options{GroupWindow: window})
	if took := r.appendTogether(one(1)); took < window {
		t.Errorf("solo append returned after %v, before its %v window", took, window)
	}
	if full, win := r.released("full"), r.released("window"); full != 0 || win != 1 {
		t.Errorf("released full=%v window=%v, want 0 and 1", full, win)
	}
}

// TestGatherTargetFollowsLastGroup: the target is the size of the last
// group. After a group of four, two appenders are not yet "everyone":
// they wait out the window once, which re-targets to two, and the next
// pair is released early.
func TestGatherTargetFollowsLastGroup(t *testing.T) {
	const window = 500 * time.Millisecond
	r := newGatherRig(t, Options{GroupWindow: window})

	// Form a group of four: queue them with no flush token, then leave
	// the one token a single wakeup needs. The flusher's one gather finds
	// the group formed and releases it, and no second token is left to
	// start an empty gather whose window the pair below could join
	// part-way through — so the pair's window starts with the pair.
	var four []<-chan error
	for lsn := uint64(1); lsn <= 4; lsn++ {
		four = append(four, queueUnflushed(t, r.w, one(lsn)))
	}
	r.w.flushC <- struct{}{}
	for _, done := range four {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := r.target(); got != 4 {
		t.Fatalf("target after a group of four is %d", got)
	}
	if full := r.released("full"); full != 1 {
		t.Fatalf("group of four released full=%v, want 1", full)
	}

	if took := r.appendTogether(one(5), one(6)); took < window {
		t.Errorf("pair after a group of four returned after %v, before the %v window", took, window)
	}
	if got := r.target(); got != 2 {
		t.Errorf("target after a windowed pair is %d, want 2", got)
	}
	if full, win := r.released("full"), r.released("window"); full != 1 || win != 1 {
		t.Errorf("after the windowed pair: full=%v window=%v, want 1 and 1", full, win)
	}

	if took := r.appendTogether(one(7), one(8)); took > window/2 {
		t.Errorf("re-targeted pair waited %v of a %v window", took, window)
	}
	if full, win := r.released("full"), r.released("window"); full != 2 || win != 1 {
		t.Errorf("after the early pair: full=%v window=%v, want 2 and 1", full, win)
	}
}

// TestGatherCloseDoesNotWaitOutWindow: Close ends a gather at once, and
// the record that was waiting for company is durable and readable.
func TestGatherCloseDoesNotWaitOutWindow(t *testing.T) {
	r := newGatherRig(t, Options{GroupWindow: 2 * time.Second})
	errC := make(chan error, 1)
	go func() { errC <- r.w.Append(one(1)) }()
	r.waitQueued(1)
	start := time.Now()
	if err := r.w.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Close took %v with a gather in progress", took)
	}
	if err := <-errC; err != nil {
		t.Fatalf("append queued before Close: %v", err)
	}
	recs, _, err := ReadAll(r.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("read %v, want the one acknowledged record", recs)
	}
}

// TestGatherRotateLeavesQueue: Rotate does not touch the queue a gather
// is holding open. It returns at once, with the record still queued; the
// record commits with its own group — the pair the gather was waiting
// for — into the new segment, above the cut, acked exactly once. The
// cut itself counts no gather release.
func TestGatherRotateLeavesQueue(t *testing.T) {
	r := newGatherRig(t, Options{GroupWindow: 2 * time.Second})
	errC := make(chan error, 1)
	go func() { errC <- r.w.Append(one(1)) }()
	r.waitQueued(1)
	start := time.Now()
	cut, err := r.w.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("Rotate took %v with a record queued", took)
	}
	if cut != 1 {
		t.Fatalf("cut at segment %d, want 1", cut)
	}
	r.waitQueued(1)
	select {
	case err := <-errC:
		t.Fatalf("append acked by the cut (err %v): it belongs to its own group", err)
	default:
	}
	if full, win := r.released("full"), r.released("window"); full != 0 || win != 0 {
		t.Errorf("Rotate counted as a gather release: full=%v window=%v", full, win)
	}

	if took := r.appendTogether(one(2)); took > 500*time.Millisecond {
		t.Errorf("the queued record's company waited %v of a 2 s window", took)
	}
	if err := <-errC; err != nil {
		t.Fatalf("append queued across the cut: %v", err)
	}
	if full, win := r.released("full"), r.released("window"); full != 1 || win != 0 {
		t.Errorf("pair across the cut: full=%v window=%v, want 1 and 0", full, win)
	}
	// A second ack of the queued record would have wedged the flusher
	// on its waiter channel: Close returning is the proof it did not.
	if err := r.w.Close(); err != nil {
		t.Fatal(err)
	}
	if g := r.hist("gpunion_wal_group_batch_size"); g.Count() != 1 || g.Sum() != 2 {
		t.Errorf("flusher wrote %d groups totalling %v records, want one pair", g.Count(), g.Sum())
	}
	if got := segmentLSNs(t, r.dir, 0); len(got) != 0 {
		t.Errorf("segment 0, below the cut, holds %v, want nothing", got)
	}
	if got := segmentLSNs(t, r.dir, 1); len(got) != 2 || !got[1] || !got[2] {
		t.Errorf("segment 1 holds %v, want records 1 and 2", got)
	}
}
