package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpunion/internal/db"
)

func nodeMut(lsn uint64, id string) db.Mutation {
	return db.Mutation{LSN: lsn, Type: db.MutNodePut,
		Node: &db.NodeRecord{ID: id, Status: db.NodeActive}}
}

func openWriter(t *testing.T, dir string, opts Options) *Writer {
	t.Helper()
	w, err := OpenWriter(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// queueUnflushed queues m the way Append does but leaves no flush token,
// so the record waits in the queue until something wakes the flusher.
// The returned channel receives its ack.
func queueUnflushed(t *testing.T, w *Writer, m db.Mutation) <-chan error {
	t.Helper()
	frame, err := appendRecord(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	w.mu.Lock()
	w.pending = append(w.pending, frame...)
	w.waiters = append(w.waiters, done)
	w.mu.Unlock()
	return done
}

func TestWriterReaderRoundTrip(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"natural-batching", Options{}},
		{"window-1ms", Options{GroupWindow: time.Millisecond}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			w := openWriter(t, dir, mode.opts)
			for i := 1; i <= 20; i++ {
				if err := w.Append(nodeMut(uint64(i), fmt.Sprintf("n%02d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, stats, err := ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 20 || stats.TornTails != 0 {
				t.Fatalf("read %d records, %d torn tails", len(recs), stats.TornTails)
			}
			for i, r := range recs {
				if r.LSN != uint64(i+1) {
					t.Fatalf("record %d has LSN %d", i, r.LSN)
				}
			}
		})
	}
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w := openWriter(t, dir, Options{})
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				lsn := uint64(g*per + i + 1)
				if err := w.Append(nodeMut(lsn, fmt.Sprintf("n%d-%d", g, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*per {
		t.Fatalf("read %d of %d records", len(recs), writers*per)
	}
}

// writeSegment hand-crafts segment 0 from the given frames/bytes.
func writeSegment(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, segmentName(0)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func encoded(t *testing.T, muts ...db.Mutation) []byte {
	t.Helper()
	var buf []byte
	for _, m := range muts {
		frame, err := appendRecord(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, frame...)
	}
	return buf
}

func TestReadTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	good := encoded(t, nodeMut(1, "a"), nodeMut(2, "b"))
	torn := encoded(t, nodeMut(3, "c"))
	// Tear the last record at every possible byte boundary: header cut
	// short, payload cut short, even a single trailing byte.
	for cut := 1; cut < len(torn); cut++ {
		writeSegment(t, dir, append(append([]byte{}, good...), torn[:cut]...))
		recs, stats, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || stats.TornTails != 1 {
			t.Fatalf("cut=%d: recovered %d records, %d torn", cut, len(recs), stats.TornTails)
		}
		if recs[1].LSN != 2 {
			t.Fatalf("cut=%d: last good record LSN %d", cut, recs[1].LSN)
		}
	}
}

func TestReadCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	data := encoded(t, nodeMut(1, "a"), nodeMut(2, "b"))
	data[len(data)-1] ^= 0xFF // flip a payload byte of the last record
	writeSegment(t, dir, data)
	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 1 || stats.TornTails != 1 {
		t.Fatalf("recovered %d records (torn=%d), want the 1 good one", len(recs), stats.TornTails)
	}
}

func TestReadEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, nil) // empty segment: clean, zero records
	recs, stats, err := ReadAll(dir)
	if err != nil || len(recs) != 0 || stats.TornTails != 0 {
		t.Fatalf("empty segment: recs=%d stats=%+v err=%v", len(recs), stats, err)
	}
	// Missing directory is a clean empty log, not an error.
	recs, _, err = ReadAll(filepath.Join(dir, "nope"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: recs=%d err=%v", len(recs), err)
	}
}

func TestTornTailOnlyHidesUnacknowledged(t *testing.T) {
	// A tear in an old segment must not swallow later segments: boot
	// always starts a new segment, so records after the tear live in
	// files of their own.
	dir := t.TempDir()
	w := openWriter(t, dir, Options{})
	if err := w.Append(nodeMut(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash damage on segment 0's tail.
	path := filepath.Join(dir, segmentName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0xDE, 0xAD), 0o644); err != nil {
		t.Fatal(err)
	}
	// Next boot writes segment 1.
	w2 := openWriter(t, dir, Options{})
	if err := w2.Append(nodeMut(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.TornTails != 1 || stats.Segments != 2 {
		t.Fatalf("recs=%d stats=%+v", len(recs), stats)
	}
}

// populate drives a store through its public mutators so the hook
// logs. Records span [base, base+n); allocation episodes get distinct
// start times, as they do under any real clock.
func populate(store db.Store, base, n int) {
	for i := base; i < base+n; i++ {
		store.UpsertNode(db.NodeRecord{ID: fmt.Sprintf("node-%02d", i), Status: db.NodeActive})
		_ = store.InsertJob(db.JobRecord{ID: fmt.Sprintf("job-%03d", i), State: db.JobPending, ImageName: "img"})
		store.RecordAllocation(db.AllocationRecord{JobID: fmt.Sprintf("job-%03d", i),
			NodeID: "node-00", DeviceID: "gpu0", Start: time.Unix(int64(base*1000+i), 0).UTC()})
	}
}

func TestManagerRecoverRoundTrip(t *testing.T) {
	for _, mk := range []struct {
		name string
		new  func() db.Store
	}{
		{"sharded", func() db.Store { return db.New(0) }},
		// One shard puts every table behind a single lock — the paper's
		// single-mutex coordinator layout on the one implementation.
		{"singlemutex", func() db.Store { return db.NewWithShards(0, 1) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			dir := t.TempDir()
			live := mk.new()
			m, err := Open(dir, live, Config{})
			if err != nil {
				t.Fatal(err)
			}
			populate(live, 0, 10)
			if err := m.Checkpoint(); err != nil { // snapshot mid-history
				t.Fatal(err)
			}
			// Tail beyond the snapshot: fresh records plus overlapping
			// re-puts of nodes 5-9 (idempotent after-images).
			populate(live, 5, 15)
			_ = live.UpdateJob("job-003", func(j *db.JobRecord) { j.State = db.JobRunning })
			_ = live.CloseAllocation("job-004", time.Now().UTC())
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			recovered := mk.new()
			res, err := Recover(dir, recovered)
			if err != nil {
				t.Fatal(err)
			}
			if !res.SnapshotLoaded || res.Replayed == 0 {
				t.Fatalf("recovery stats: %+v", res)
			}
			want, got := live.ExportState(), recovered.ExportState()
			if !statesEqual(want, got) {
				t.Fatalf("recovered state differs:\nwant %+v\ngot  %+v", want, got)
			}
			if recovered.CurrentLSN() != live.CurrentLSN() {
				t.Fatalf("LSN %d != %d", recovered.CurrentLSN(), live.CurrentLSN())
			}
		})
	}
}

// TestRecoverSkipsOldSampleRecords: a log written by a binary that still
// logged monitoring samples recovers every node and job and no sample,
// without an error. The skipped records keep their LSN slots, so what
// the recovered store logs next never collides with an LSN the old
// segment holds — a standby tailing the directory sees every record.
func TestRecoverSkipsOldSampleRecords(t *testing.T) {
	dir := t.TempDir()
	sample := func(lsn uint64, node string) db.Mutation {
		return db.Mutation{LSN: lsn, Type: db.MutSamplePut, Sample: &db.Sample{
			Time: time.Unix(int64(lsn), 0).UTC(), NodeID: node, Metric: "gpu_utilization", Value: 0.5}}
	}
	job := func(lsn uint64, id string) db.Mutation {
		return db.Mutation{LSN: lsn, Type: db.MutJobPut, Job: &db.JobRecord{ID: id, State: db.JobPending, ImageName: "img"}}
	}
	writeSegment(t, dir, encoded(t,
		nodeMut(1, "n1"), sample(2, "n1"), sample(3, "n1"), job(4, "j1"),
		nodeMut(5, "n2"), sample(6, "n2"), job(7, "j2"), sample(8, "n2"), sample(9, "n1")))

	store := db.New(0)
	m, err := Open(dir, store, Config{})
	if err != nil {
		t.Fatalf("recovering an old-format log: %v", err)
	}
	defer m.Close()
	if m.Recovery.Replayed != 9 || m.Recovery.TornTails != 0 {
		t.Fatalf("recovery stats: %+v", m.Recovery)
	}
	st := store.ExportState()
	if len(st.Nodes) != 2 || len(st.Jobs) != 2 || len(st.Samples) != 0 {
		t.Fatalf("recovered %d nodes, %d jobs, %d samples; want 2, 2, 0", len(st.Nodes), len(st.Jobs), len(st.Samples))
	}

	store.UpsertNode(db.NodeRecord{ID: "n3", Status: db.NodeActive})
	if got := store.CurrentLSN(); got != 10 {
		t.Fatalf("first record after recovery took LSN %d, want 10 (above the old log's samples)", got)
	}
	standby, f := newStandby(t)
	if err := f.Pump(NewShipper(dir)); err != nil {
		t.Fatal(err)
	}
	if !statesEqual(store.ExportState(), standby.ExportState()) || f.AppliedLSN() != 10 {
		t.Fatalf("standby at LSN %d diverged:\nwant %+v\ngot  %+v", f.AppliedLSN(), store.ExportState(), standby.ExportState())
	}
}

func TestSnapshotTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	store := db.New(0)
	m, err := Open(dir, store, Config{})
	if err != nil {
		t.Fatal(err)
	}
	populate(store, 0, 20)
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	idx, err := segmentIndexes(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Only the segment being written survives the snapshot cut.
	if len(idx) != 1 {
		t.Fatalf("segments %v survived the snapshot cut, want one", idx)
	}
	// Everything still recovers from snapshot alone.
	recovered := db.New(0)
	res, err := Recover(dir, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotLoaded || len(recovered.ListNodes()) != 20 {
		t.Fatalf("post-truncation recovery: %+v nodes=%d", res, len(recovered.ListNodes()))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotUnderLoadKeepsAckedRecords: snapshots that cut and
// truncate the log while appenders keep committing lose no acknowledged
// record and invent none. Groups queued at a cut commit above it and
// replay over the snapshot that already holds them.
func TestSnapshotUnderLoadKeepsAckedRecords(t *testing.T) {
	const appenders, each, cuts = 4, 150, 2
	dir := t.TempDir()
	store := db.New(0)
	var mu sync.Mutex
	acked := map[uint64]string{}
	m, err := Open(dir, store, Config{
		GroupWindow: time.Millisecond,
		OnDurable: func(mut db.Mutation) {
			mu.Lock()
			acked[mut.LSN] = mut.Node.ID
			mu.Unlock()
		},
		OnAppendError: func(err error) { t.Errorf("append: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				store.UpsertNode(db.NodeRecord{ID: fmt.Sprintf("w%d-%03d", a, i), Status: db.NodeActive})
			}
		}()
	}
	// Cut each time another share of the load has been acknowledged, so
	// both snapshots race live appenders.
	for c := 1; c <= cuts; c++ {
		for {
			mu.Lock()
			n := len(acked)
			mu.Unlock()
			if n >= c*appenders*each/(cuts+1) {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if idx, err := segmentIndexes(dir); err != nil || idx[0] != cuts {
		t.Fatalf("segments %v after %d cuts (%v): the log was not truncated", idx, cuts, err)
	}

	recovered := db.New(0)
	if _, err := Recover(dir, recovered); err != nil {
		t.Fatal(err)
	}
	if len(acked) != appenders*each {
		t.Fatalf("%d of %d appends acknowledged", len(acked), appenders*each)
	}
	got := map[string]bool{}
	for _, n := range recovered.ListNodes() {
		got[n.ID] = true
	}
	for lsn, id := range acked {
		if !got[id] {
			t.Errorf("acknowledged record %d (%s) lost", lsn, id)
		}
	}
	if len(got) != len(acked) {
		t.Errorf("recovered %d nodes, want the %d acknowledged", len(got), len(acked))
	}
	if recovered.CurrentLSN() != appenders*each {
		t.Errorf("recovered watermark %d, want %d", recovered.CurrentLSN(), appenders*each)
	}
}

func statesEqual(a, b db.State) bool {
	// Watermarks legitimately differ (export time vs recovery);
	// content equality is what matters.
	a.Watermark, b.Watermark = 0, 0
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	return string(ja) == string(jb)
}
