package wal

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"gpunion/internal/db"
)

// newStandby returns an empty store plus its follower.
func newStandby(t *testing.T) (*db.DB, *Follower) {
	t.Helper()
	store := db.New(0)
	return store, NewFollower(store)
}

// applyCounter counts how often a follower applies each LSN.
type applyCounter struct {
	db.Store
	applied map[uint64]int
}

func (c *applyCounter) Apply(m db.Mutation) error {
	c.applied[m.LSN]++
	return c.Store.Apply(m)
}

func TestShipperTailsAcrossRotations(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, Options{})
	s := NewShipper(dir)
	standby := &applyCounter{Store: db.New(0), applied: map[uint64]int{}}
	f := NewFollower(standby)

	lsn := uint64(0)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			lsn++
			if err := w.Append(nodeMut(lsn, fmt.Sprintf("n%03d", lsn))); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(5)
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 5 {
		t.Fatalf("applied %d after first pump, want 5", f.AppliedLSN())
	}
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	appendN(7)
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 12 {
		t.Fatalf("applied %d after rotation, want 12", f.AppliedLSN())
	}
	// Nothing new: Pump is a no-op.
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 12 {
		t.Fatalf("applied %d after a no-op Pump, want 12", f.AppliedLSN())
	}
	// A group queued across the cut: record 13 waits in the queue while
	// Rotate retires segment 1, and commits with record 14 in segment 2.
	queued := queueUnflushed(t, w, nodeMut(13, "n013"))
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	lsn = 13 // taken by the queued record
	appendN(1)
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	if got := segmentLSNs(t, dir, 2); !got[13] || !got[14] {
		t.Fatalf("segment 2 holds %v, want the group queued across the cut", got)
	}
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 14 {
		t.Fatalf("applied %d after the group queued across the cut, want 14", f.AppliedLSN())
	}
	for l := uint64(1); l <= 14; l++ {
		if standby.applied[l] != 1 {
			t.Errorf("follower applied LSN %d %d times, want once", l, standby.applied[l])
		}
	}
}

func TestFollowerReordersOutOfOrderBatches(t *testing.T) {
	_, f := newStandby(t)
	// LSN 2 arrives before LSN 1 (post-unlock hook reordering).
	if err := f.Offer([]db.Mutation{nodeMut(2, "b")}); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 0 {
		t.Fatalf("applied %d with a hole at 1, want 0", f.AppliedLSN())
	}
	if err := f.Offer([]db.Mutation{nodeMut(1, "a")}); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 2 {
		t.Fatalf("applied %d after hole filled, want 2", f.AppliedLSN())
	}
}

func TestFollowerDrainAppliesSortedWithHoles(t *testing.T) {
	store, f := newStandby(t)
	// LSN 2 is a permanent hole (its append failed on the leader); 4
	// and 3 arrive out of order. Drain must apply 3 then 4.
	if err := f.Offer([]db.Mutation{nodeMut(4, "x"), nodeMut(3, "x")}); err != nil {
		t.Fatal(err)
	}
	if err := f.Offer([]db.Mutation{nodeMut(1, "a")}); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 1 {
		t.Fatalf("applied %d before drain, want 1", f.AppliedLSN())
	}
	n, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("drained %d records, want 2", n)
	}
	if f.AppliedLSN() != 4 {
		t.Fatalf("applied %d after drain, want 4", f.AppliedLSN())
	}
	// Last-writer-wins: node x must reflect LSN 4's after-image, which
	// was offered first but applied last.
	st := store.ExportState()
	if st.Watermark < 4 {
		t.Fatalf("store watermark %d, want >= 4", st.Watermark)
	}
}

func TestShipperSkipsPoisonedSegmentTear(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, Options{})
	if err := w.Append(nodeMut(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt segment 0's tail, then add a later segment: the tear is
	// permanent and the shipper must skip past it to segment 1.
	seg0 := dir + "/" + segmentName(0)
	appendBytes(t, seg0, []byte{0xde, 0xad, 0xbe, 0xef})
	w2 := openWriter(t, dir, Options{})
	if err := w2.Append(nodeMut(2, "b")); err != nil {
		t.Fatal(err)
	}
	s := NewShipper(dir)
	_, f := newStandby(t)
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() != 2 {
		t.Fatalf("applied %d, want 2 (tear skipped)", f.AppliedLSN())
	}
}

func TestShipperRetriesTornTailOnLatestSegment(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, Options{})
	if err := w.Append(nodeMut(1, "a")); err != nil {
		t.Fatal(err)
	}
	// Simulate a flush in flight: a partial frame at the latest
	// segment's tail. The shipper must hold its cursor and deliver the
	// frame once it completes.
	seg := dir + "/" + segmentName(0)
	frame, err := appendRecord(nil, nodeMut(2, "b"))
	if err != nil {
		t.Fatal(err)
	}
	appendBytes(t, seg, frame[:5])
	s := NewShipper(dir)
	recs, err := s.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 {
		t.Fatalf("got %d records before tail completes", len(recs))
	}
	appendBytes(t, seg, frame[5:])
	recs, err = s.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 2 {
		t.Fatalf("completed tail not delivered: %+v", recs)
	}
	_ = w.Close()
}

func TestPumpResolvesSnapshotGap(t *testing.T) {
	dir := t.TempDir()
	leader := db.New(0)
	mgr, err := Open(dir, leader, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for i := 0; i < 10; i++ {
		leader.UpsertNode(db.NodeRecord{ID: fmt.Sprintf("n%02d", i), Status: db.NodeActive})
	}
	s := NewShipper(dir)
	_, f := newStandby(t)
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	caughtUp := f.AppliedLSN()
	// Checkpoint truncates the shipped segments out from under the
	// cursor; a caught-up follower skips to the surviving log.
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	leader.UpsertNode(db.NodeRecord{ID: "after", Status: db.NodeActive})
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	if f.AppliedLSN() <= caughtUp {
		t.Fatalf("applied %d after gap, want > %d", f.AppliedLSN(), caughtUp)
	}
}

func TestPumpResyncsWhenBehindSnapshot(t *testing.T) {
	dir := t.TempDir()
	leader := db.New(0)
	mgr, err := Open(dir, leader, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for i := 0; i < 10; i++ {
		leader.UpsertNode(db.NodeRecord{ID: fmt.Sprintf("n%02d", i), Status: db.NodeActive})
	}
	// The follower never pumped before the checkpoint: the truncated
	// records are gone from the log, so Pump must fall back to a full
	// resync from snapshot + surviving log.
	if err := mgr.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	leader.UpsertNode(db.NodeRecord{ID: "after", Status: db.NodeActive})
	s := NewShipper(dir)
	standby, f := newStandby(t)
	// Prime the cursor on the pre-checkpoint listing order by polling
	// once after the checkpoint: the oldest segment is already the
	// surviving one, so force the gap by pointing the cursor below it.
	s.mu.Lock()
	s.seg, s.off, s.primed = -1, 0, true
	s.mu.Unlock()
	if err := f.Pump(s); err != nil {
		t.Fatal(err)
	}
	st := standby.ExportState()
	if len(st.Nodes) != 11 {
		t.Fatalf("standby has %d nodes after resync, want 11", len(st.Nodes))
	}
}

func TestGapErrorIsTyped(t *testing.T) {
	var gap *GapError
	err := error(&GapError{Watermark: 7})
	if !errors.As(err, &gap) || gap.Watermark != 7 {
		t.Fatalf("GapError does not round-trip through errors.As")
	}
}

// appendBytes appends raw bytes to a segment file, simulating torn or
// in-flight writes.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
