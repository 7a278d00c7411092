package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpunion/internal/db"
)

// stubFS wraps OSFS with switchable write/sync faults, mirroring what
// the chaos harness injects in production scenarios.
type stubFS struct {
	mu         sync.Mutex
	syncErr    bool
	shortWrite bool
}

func (s *stubFS) set(syncErr, shortWrite bool) {
	s.mu.Lock()
	s.syncErr, s.shortWrite = syncErr, shortWrite
	s.mu.Unlock()
}

func (s *stubFS) OpenAppend(name string) (File, error) {
	f, err := OSFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &stubFile{File: f, fs: s}, nil
}

type stubFile struct {
	File
	fs *stubFS
}

var errInjected = errors.New("injected disk fault")

func (f *stubFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	short := f.fs.shortWrite
	f.fs.mu.Unlock()
	if short && len(p) > 1 {
		n, _ := f.File.Write(p[:len(p)/2]) // torn frame hits the disk
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *stubFile) Sync() error {
	f.fs.mu.Lock()
	bad := f.fs.syncErr
	f.fs.mu.Unlock()
	if bad {
		return errInjected
	}
	return f.File.Sync()
}

// TestWriterHealsAfterDiskFault proves the durability contract the
// chaos harness audits: every Append that returned nil is recoverable,
// even when earlier Appends failed with torn writes or fsync errors —
// the writer quarantines the poisoned segment and rotates before the
// next group.
func TestWriterHealsAfterDiskFault(t *testing.T) {
	for _, mode := range []struct {
		name               string
		syncErr, shortWrit bool
		// window and width make every step a group the gather releases
		// early: width concurrent appenders under a window far longer
		// than the test may take. A failed fsync must then fail every
		// waiter of the group, not just the one that woke the flusher.
		window time.Duration
		width  int
	}{
		{"sync-error-group", true, false, 0, 1},
		{"short-write-group", false, true, 0, 1},
		{"sync-error-early-released-pair", true, false, 2 * time.Second, 2},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := &stubFS{}
			w := openWriter(t, dir, Options{FS: fs, GroupWindow: mode.window})

			var acked []uint64
			// append1 appends mode.width records concurrently (lsn,
			// lsn+100, ...) and returns how many appenders failed and
			// the first error.
			append1 := func(lsn uint64) (int, error) {
				errs := make([]error, mode.width)
				var wg sync.WaitGroup
				for i := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						l := lsn + uint64(100*i)
						errs[i] = w.Append(nodeMut(l, fmt.Sprintf("n%03d", l)))
					}()
				}
				wg.Wait()
				var first error
				failed := 0
				for i, err := range errs {
					if err == nil {
						acked = append(acked, lsn+uint64(100*i))
						continue
					}
					failed++
					if first == nil {
						first = err
					}
				}
				return failed, first
			}

			start := time.Now()
			for lsn := uint64(1); lsn <= 5; lsn++ {
				if _, err := append1(lsn); err != nil {
					t.Fatalf("healthy append %d: %v", lsn, err)
				}
			}
			// Fault window: these appends must fail (never falsely acked).
			fs.set(mode.syncErr, mode.shortWrit)
			for lsn := uint64(6); lsn <= 8; lsn++ {
				if failed, _ := append1(lsn); failed != mode.width {
					t.Fatalf("append %d: %d of %d appenders acked during disk fault", lsn, mode.width-failed, mode.width)
				}
				w.mu.Lock()
				poisoned := w.poisoned
				w.mu.Unlock()
				if !poisoned {
					t.Fatalf("segment not poisoned after failed append %d", lsn)
				}
			}
			// Disk heals: appends succeed again and must be recoverable
			// despite the poisoned segment tail in between.
			fs.set(false, false)
			for lsn := uint64(9); lsn <= 12; lsn++ {
				if _, err := append1(lsn); err != nil {
					t.Fatalf("post-heal append %d: %v", lsn, err)
				}
			}
			if took := time.Since(start); mode.window > 0 && took > 3*mode.window {
				t.Errorf("12 formed groups took %v: they are waiting out the %v window", took, mode.window)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			recs, stats, err := ReadAll(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]bool, len(recs))
			for _, r := range recs {
				got[r.LSN] = true
			}
			for _, lsn := range acked {
				if !got[lsn] {
					t.Errorf("acknowledged record %d lost (stats %+v)", lsn, stats)
				}
			}
			if stats.Segments < 2 {
				t.Errorf("expected a healing rotation, read %d segment(s)", stats.Segments)
			}
		})
	}
}

// TestRotateNeverWritesBehindTear: a group queued when Rotate cuts a
// poisoned segment must not be written behind the torn frame — the
// reader would stop at the tear and silently lose records that were
// acknowledged.
func TestRotateNeverWritesBehindTear(t *testing.T) {
	dir := t.TempDir()
	fs := &stubFS{}
	w := openWriter(t, dir, Options{FS: fs})

	if err := w.Append(nodeMut(1, "a")); err != nil {
		t.Fatal(err)
	}
	// Poison segment 0 with a genuinely torn frame.
	fs.set(false, true)
	if err := w.Append(nodeMut(2, "torn")); err == nil {
		t.Fatal("torn append acked")
	}
	fs.set(false, false)

	// Stage a pending group exactly as racing appenders would leave it
	// when Rotate wins the I/O lock before the flusher runs: queued, with
	// the flush token an Append leaves behind.
	done := queueUnflushed(t, w, nodeMut(3, "staged"))
	w.flushC <- struct{}{}

	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("staged group not acked: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, r := range recs {
		got[r.LSN] = true
	}
	if !got[1] || !got[3] {
		t.Fatalf("acknowledged records lost behind the tear: got %v (stats %+v)", recs, stats)
	}
	if got[2] {
		t.Fatal("torn, unacknowledged record resurrected")
	}
}

// TestWriterStaysDownWhileFSDown: when even opening a fresh segment
// fails, appends keep failing (no false acks) and the writer recovers
// once the filesystem comes back.
func TestWriterStaysDownWhileFSDown(t *testing.T) {
	dir := t.TempDir()
	fs := &downFS{inner: &stubFS{}}
	w := openWriter(t, dir, Options{FS: fs})
	if err := w.Append(nodeMut(1, "a")); err != nil {
		t.Fatal(err)
	}
	fs.inner.set(true, false) // current segment fails
	fs.setDown(true)          // and no new segment can be opened
	for lsn := uint64(2); lsn <= 4; lsn++ {
		if err := w.Append(nodeMut(lsn, "b")); err == nil {
			t.Fatalf("append %d acked with filesystem down", lsn)
		}
	}
	fs.inner.set(false, false)
	fs.setDown(false)
	if err := w.Append(nodeMut(5, "c")); err != nil {
		t.Fatalf("append after heal: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	for _, r := range recs {
		lsns = append(lsns, r.LSN)
	}
	if len(recs) < 2 || recs[0].LSN != 1 || recs[len(recs)-1].LSN != 5 {
		t.Fatalf("recovered LSNs %v, want first=1 last=5", lsns)
	}
}

// downFS also fails OpenAppend while down.
type downFS struct {
	mu    sync.Mutex
	down  bool
	inner *stubFS
}

func (d *downFS) setDown(v bool) {
	d.mu.Lock()
	d.down = v
	d.mu.Unlock()
}

func (d *downFS) OpenAppend(name string) (File, error) {
	d.mu.Lock()
	down := d.down
	d.mu.Unlock()
	if down {
		return nil, errInjected
	}
	return d.inner.OpenAppend(name)
}

// gateFS wraps OSFS with a one-shot fsync fault that the test holds
// open: the armed Sync announces itself on entered, blocks until
// release is closed, then fails. Every Write reports the bytes it put
// on disk through wrote, so the test can wait for groups to land
// behind the in-flight fsync instead of sleeping.
type gateFS struct {
	mu      sync.Mutex
	armed   bool
	syncs   map[string]int // Sync calls per segment file
	entered chan string    // name of the file whose Sync is held
	release chan struct{}
	wrote   chan int
}

func (g *gateFS) OpenAppend(name string) (File, error) {
	f, err := OSFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g, name: name}, nil
}

type gateFile struct {
	File
	fs   *gateFS
	name string
}

func (f *gateFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.wrote <- n
	return n, err
}

func (f *gateFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs[f.name]++
	held := f.fs.armed
	f.fs.armed = false
	f.fs.mu.Unlock()
	if held {
		f.fs.entered <- f.name
		<-f.fs.release
		return errInjected
	}
	return f.File.Sync()
}

// TestConcurrentAppendersAcrossFsyncFault drives concurrent appenders
// through an fsync-error window on the pipelined writer. One group's
// fsync is held in flight and then fails; while it is held, the other
// appenders' groups are written behind it on the same segment. The
// disk is healthy again by the time the sync stage reaches them, so
// only the failed-file memory in syncLoop stands between those groups
// and a false ack: each must fail without a second fsync on that file.
// Every Append that did return nil — before, and after the heal — must
// be readable once the log is reopened.
func TestConcurrentAppendersAcrossFsyncFault(t *testing.T) {
	const appenders = 8
	dir := t.TempDir()
	fs := &gateFS{
		syncs:   make(map[string]int),
		entered: make(chan string, 1),
		release: make(chan struct{}),
		wrote:   make(chan int, 4*appenders), // every write of the test fits: none blocks on the reader
	}
	w := openWriter(t, dir, Options{FS: fs})

	var (
		ackMu sync.Mutex
		acked []uint64
	)
	// appendAll runs one Append per LSN concurrently and returns each
	// appender's error, indexed like lsns.
	appendAll := func(lsns []uint64) []error {
		errs := make([]error, len(lsns))
		var wg sync.WaitGroup
		for i, lsn := range lsns {
			wg.Add(1)
			go func(i int, lsn uint64) {
				defer wg.Done()
				errs[i] = w.Append(nodeMut(lsn, fmt.Sprintf("n%03d", lsn)))
				if errs[i] == nil {
					ackMu.Lock()
					acked = append(acked, lsn)
					ackMu.Unlock()
				}
			}(i, lsn)
		}
		wg.Wait()
		return errs
	}
	lsnRange := func(from, n uint64) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = from + uint64(i)
		}
		return out
	}
	frameLen := func(lsn uint64) int {
		frame, err := appendRecord(nil, nodeMut(lsn, fmt.Sprintf("n%03d", lsn)))
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}

	for i, err := range appendAll(lsnRange(1, appenders)) {
		if err != nil {
			t.Fatalf("healthy append %d: %v", i+1, err)
		}
	}
	for len(fs.wrote) > 0 {
		<-fs.wrote
	}

	// The window opens: the next fsync is held in flight.
	fs.mu.Lock()
	fs.armed = true
	fs.mu.Unlock()
	const first = uint64(100)
	firstErr := make(chan error, 1)
	go func() { firstErr <- w.Append(nodeMut(first, "held")) }()
	failedFile := <-fs.entered

	// The other appenders' groups land behind the held fsync.
	behind := lsnRange(first+1, appenders-1)
	want := 0
	for _, lsn := range append([]uint64{first}, behind...) {
		want += frameLen(lsn)
	}
	behindErrs := make(chan []error, 1)
	go func() { behindErrs <- appendAll(behind) }()
	for got := 0; got < want; {
		got += <-fs.wrote
	}

	// The fault is over (it was one-shot) before the held fsync reports.
	close(fs.release)
	if err := <-firstErr; err == nil {
		t.Fatal("append acked although its fsync failed")
	}
	for i, err := range <-behindErrs {
		if err == nil {
			t.Errorf("append %d, written behind the failed fsync on the same file, was acked", behind[i])
		}
	}
	fs.mu.Lock()
	syncsOnFailed := fs.syncs[failedFile]
	fs.mu.Unlock()

	// Healed: concurrent appends succeed again, on a fresh segment.
	for i, err := range appendAll(lsnRange(200, appenders)) {
		if err != nil {
			t.Fatalf("post-heal append %d: %v", 200+i, err)
		}
	}
	fs.mu.Lock()
	if n := fs.syncs[failedFile]; n != syncsOnFailed {
		t.Errorf("failed segment fsynced %d more time(s) after its failure", n-syncsOnFailed)
	}
	fs.mu.Unlock()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, stats, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		got[r.LSN] = true
	}
	if len(acked) != 2*appenders {
		t.Fatalf("%d appends acked, want %d", len(acked), 2*appenders)
	}
	for _, lsn := range acked {
		if !got[lsn] {
			t.Errorf("acknowledged record %d lost (stats %+v)", lsn, stats)
		}
	}
}

// TestAppendBatchAllOrNothing pins what a commit group — the batch of
// waiting appends the flusher writes and fsyncs together — promises its
// members: one write, one covering fsync, and one verdict for all of
// them; a short write leaves at most a readable prefix that was never
// acknowledged; and a rotation racing the appenders neither tears a
// segment nor drops a record.
func TestAppendBatchAllOrNothing(t *testing.T) {
	batchOf := func(from uint64, n int) []db.Mutation {
		ms := make([]db.Mutation, n)
		for i := range ms {
			lsn := from + uint64(i)
			ms[i] = nodeMut(lsn, fmt.Sprintf("n%03d", lsn))
		}
		return ms
	}
	framesLen := func(ms []db.Mutation) int {
		var buf []byte
		for _, m := range ms {
			var err error
			if buf, err = appendRecord(buf, m); err != nil {
				t.Fatal(err)
			}
		}
		return len(buf)
	}
	// groupWindow is far longer than a subtest may take: a group is
	// released because it formed, never because the window ran out.
	const groupWindow = 30 * time.Second
	// appendGroup appends ms concurrently as one commit group: with the
	// gather target pinned to the group's size, the flusher releases
	// exactly when all of them are queued.
	appendGroup := func(w *Writer, ms []db.Mutation) []error {
		w.mu.Lock()
		w.gatherTarget = len(ms)
		w.mu.Unlock()
		errs := make([]error, len(ms))
		var wg sync.WaitGroup
		for i := range ms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = w.Append(ms[i])
			}()
		}
		wg.Wait()
		return errs
	}
	failures := func(errs []error) (n int) {
		for _, err := range errs {
			if err != nil {
				n++
			}
		}
		return n
	}

	t.Run("fsync-failure-fails-the-whole-batch", func(t *testing.T) {
		dir := t.TempDir()
		fs := &gateFS{
			syncs:   make(map[string]int),
			entered: make(chan string, 1),
			release: make(chan struct{}),
			wrote:   make(chan int, 8), // every write of the subtest fits
		}
		w := openWriter(t, dir, Options{FS: fs, GroupWindow: groupWindow})
		batch := batchOf(1, 4)
		fs.mu.Lock()
		fs.armed = true
		fs.mu.Unlock()
		errC := make(chan []error, 1)
		go func() { errC <- appendGroup(w, batch) }()
		<-fs.entered
		// The whole group went down in one write before its one fsync.
		if got, want := <-fs.wrote, framesLen(batch); got != want {
			t.Fatalf("group written as %d bytes, want all %d in one write", got, want)
		}
		close(fs.release)
		if n := failures(<-errC); n != len(batch) {
			t.Fatalf("%d of %d appends acked although their covering fsync failed", len(batch)-n, len(batch))
		}
		// The writer heals, and what it acks from here on is readable.
		if n := failures(appendGroup(w, batchOf(10, 2))); n != 0 {
			t.Fatalf("post-heal group: %d appends failed", n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReadAll(dir)
		if err != nil {
			t.Fatal(err)
		}
		got := map[uint64]bool{}
		for _, r := range recs {
			got[r.LSN] = true
		}
		if !got[10] || !got[11] {
			t.Fatalf("acknowledged post-heal group lost: %v", recs)
		}
	})

	t.Run("short-write-leaves-a-readable-prefix", func(t *testing.T) {
		dir := t.TempDir()
		fs := &stubFS{}
		w := openWriter(t, dir, Options{FS: fs, GroupWindow: groupWindow})
		if n := failures(appendGroup(w, []db.Mutation{nodeMut(1, "a")})); n != 0 {
			t.Fatal("healthy append failed")
		}
		// Three equal frames, half of the bytes written: the tear falls
		// inside the second frame.
		fs.set(false, true)
		if n := failures(appendGroup(w, batchOf(2, 3))); n != 3 {
			t.Fatalf("%d appends of a torn group acked", 3-n)
		}
		fs.set(false, false)
		if n := failures(appendGroup(w, batchOf(5, 3))); n != 0 {
			t.Fatalf("post-heal group: %d appends failed", n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		store := db.New(0)
		res, err := Recover(dir, store)
		if err != nil {
			t.Fatalf("recovery over a torn group: %v", err)
		}
		if res.TornTails != 1 {
			t.Fatalf("torn tails = %d, want the one torn group", res.TornTails)
		}
		// Record 1 and the healed group were acked; of the torn group only
		// the intact first frame may surface (unacked, harmless to replay).
		nodes := map[string]bool{}
		for _, n := range store.ListNodes() {
			nodes[n.ID] = true
		}
		for _, id := range []string{"a", "n005", "n006", "n007"} {
			if !nodes[id] {
				t.Errorf("acknowledged record %s lost", id)
			}
		}
		surfaced := 0
		for _, id := range []string{"n002", "n003", "n004"} {
			if nodes[id] {
				surfaced++
			}
		}
		if surfaced > 1 {
			t.Errorf("records behind the tear resurrected: %v", nodes)
		}
	})

	t.Run("rotate-never-tears-or-drops-a-record", func(t *testing.T) {
		const appenders, each = 4, 100
		dir := t.TempDir()
		w := openWriter(t, dir, Options{})
		var wg sync.WaitGroup
		errs := make(chan error, appenders)
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					lsn := uint64(a*each + i + 1)
					if err := w.Append(nodeMut(lsn, fmt.Sprintf("n%03d", lsn))); err != nil {
						errs <- err
						return
					}
				}
			}(a)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for rotating := true; rotating; {
			select {
			case <-done:
				rotating = false
			default:
				if _, err := w.Rotate(); err != nil {
					t.Fatal(err)
				}
			}
		}
		close(errs)
		for err := range errs {
			t.Fatalf("append: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		idx, err := segmentIndexes(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) < 2 {
			t.Fatalf("no rotation raced the appenders (%d segment)", len(idx))
		}
		seen := map[uint64]int{}
		for _, i := range idx {
			data, err := os.ReadFile(filepath.Join(dir, segmentName(i)))
			if err != nil {
				t.Fatal(err)
			}
			recs, torn := decodeFrames(data)
			if torn {
				t.Fatalf("segment %d has a torn tail", i)
			}
			for _, r := range recs {
				seen[r.LSN]++
			}
		}
		for lsn := uint64(1); lsn <= appenders*each; lsn++ {
			if seen[lsn] != 1 {
				t.Fatalf("acknowledged record %d appears %d times across the segments", lsn, seen[lsn])
			}
		}
	})
}
