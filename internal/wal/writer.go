package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/monitor"
)

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: writer closed")

// Options tunes a Writer.
type Options struct {
	// GroupWindow is the longest a commit waits for company: once woken,
	// the flusher holds the group open until as many operations are
	// queued as the previous group released (at least two) or the
	// window has elapsed, whichever is first. A group that has formed
	// commits at once; an appender that stays alone waits the whole
	// window. Zero means natural batching: the flusher syncs as soon as
	// it can, and whatever arrived while the previous fsync was in
	// flight forms the next group — no added latency, still one fsync
	// per group.
	GroupWindow time.Duration
	// FS opens segment files (nil = the real filesystem). The chaos
	// harness injects disk faults here.
	FS FS
}

// Writer appends mutation records to log segments with group-committed,
// pipelined fsync: concurrent Appends coalesce into one write, and each
// Append returns only after its record is durable — the property that
// lets a store acknowledge a mutation as soon as (and only when) it
// cannot be lost.
//
// Commit is a two-stage pipeline. The write stage (flush) drains the
// queue and issues the group's write() under the I/O lock, then hands
// the segment to the sync stage and releases the lock — so the next
// group's buffer fills and its write() issues while the previous
// group's fsync is still in flight. The sync stage fsyncs in hand-off
// order and releases each group's waiters only after a covering fsync,
// which is what keeps acked ⇒ durable.
//
// The writer survives disk faults: a failed group write or sync marks
// the current segment poisoned (its tail may be torn), and the next
// write first advances to a fresh segment. A failed fsync additionally
// fails every later group already written behind it on the same file —
// those bytes sit behind a possible tear, so they must never be
// acknowledged even if a retried fsync were to report success. Records
// acknowledged after the fault are therefore readable on recovery — the
// torn bytes stay quarantined in the poisoned segment, whose tail the
// reader already tolerates.
//
// Every segment after the first is started by one routine, advance,
// whether a snapshot cut (Rotate) or a poison heal asks for it; neither
// writes records itself. Every acknowledged record therefore took the
// same path to disk: a group flush, then a covering fsync in the sync
// stage.
type Writer struct {
	dir  string
	opts Options
	fs   FS

	// ioMu serializes file I/O (flush, rotate). It covers the group
	// write but not the fsync, which runs in the sync stage.
	ioMu sync.Mutex
	// mu guards the queue and segment state. Never held across I/O, so
	// appenders keep enqueueing while a group fsync is in flight —
	// that queue *is* the next group.
	mu      sync.Mutex
	f       File
	seg     int
	pending []byte
	waiters []chan error
	closed  bool
	// poisoned records that the last I/O on f failed: its tail may hold
	// a torn frame, so no further record may land behind it.
	poisoned bool
	// gatherTarget is how many queued operations end a gather early: the
	// size of the last group flush released, never below
	// minGatherTarget.
	gatherTarget int

	flushC chan struct{}
	// fullC tells a gathering flusher the queue reached gatherTarget.
	// Sent under mu, so the flusher can discard a stale token and
	// re-read the queue length in one mu hold.
	fullC chan struct{}
	doneC chan struct{}
	wg    sync.WaitGroup

	// syncC feeds the sync stage in write order; syncWg tracks the sync
	// goroutine.
	syncC  chan syncReq
	syncWg sync.WaitGroup

	// metrics is nil until Instrument; recording sites load it once per
	// operation, so an uninstrumented writer pays one atomic load and no
	// timer reads.
	metrics atomic.Pointer[writerMetrics]
}

// syncReq is one write-stage hand-off to the sync stage: the segment
// file whose new bytes need an fsync and the appenders waiting on it.
// A request with barrier set is a drain marker instead: the sync stage
// closes it once every earlier request has completed, which is how
// Rotate, Close and poison heals wait out the pipeline before touching
// a file.
type syncReq struct {
	f       File
	waiters []chan error
	barrier chan struct{}
}

// writerMetrics holds the instrumentation handles registered by
// Instrument.
type writerMetrics struct {
	appendSeconds *monitor.Histogram
	fsyncSeconds  *monitor.Histogram
	groupBatch    *monitor.Histogram
	rotations     *monitor.Counter
	appendErrors  *monitor.Counter
	releaseFull   *monitor.Counter
	releaseWindow *monitor.Counter
}

// Instrument registers the writer's metrics on reg and starts
// recording: append latency (enqueue to durable, one observation per
// Append), fsync latency, group batch size (waiting appends released
// per fsync), segment rotations
// (snapshot cuts and poison heals) and failed appends. Call once after
// OpenWriter; until then the writer records nothing and reads no
// timers.
func (w *Writer) Instrument(reg *monitor.Registry) error {
	if reg == nil {
		return nil
	}
	latency := []float64{0.00005, 0.0002, 0.001, 0.005, 0.02, 0.1, 0.5}
	m := &writerMetrics{}
	var err error
	if m.appendSeconds, err = reg.Histogram("gpunion_wal_append_seconds",
		"WAL append latency from enqueue to durable, in seconds.", latency, nil); err != nil {
		return err
	}
	if m.fsyncSeconds, err = reg.Histogram("gpunion_wal_fsync_seconds",
		"WAL segment fsync latency in seconds.", latency, nil); err != nil {
		return err
	}
	if m.groupBatch, err = reg.Histogram("gpunion_wal_group_batch_size",
		"Waiting appends released per group-commit fsync (one record each).",
		[]float64{1, 2, 4, 8, 16, 32, 64}, nil); err != nil {
		return err
	}
	if m.rotations, err = reg.Counter("gpunion_wal_rotations_total",
		"WAL segment rotations (snapshot cuts and poisoned-segment heals).", nil); err != nil {
		return err
	}
	if m.appendErrors, err = reg.Counter("gpunion_wal_append_errors_total",
		"WAL appends that failed (durability lost for that record).", nil); err != nil {
		return err
	}
	const releaseHelp = "WAL groups released by the gather, by reason: full = as many operations queued as the previous group released, window = the group window elapsed first. Not counted when the window is zero."
	if m.releaseFull, err = reg.Counter("gpunion_wal_group_release_total", releaseHelp,
		map[string]string{"reason": "full"}); err != nil {
		return err
	}
	if m.releaseWindow, err = reg.Counter("gpunion_wal_group_release_total", releaseHelp,
		map[string]string{"reason": "window"}); err != nil {
		return err
	}
	w.metrics.Store(m)
	return nil
}

// timedSync runs f.Sync, recording its latency when instrumented.
func (w *Writer) timedSync(f File) error {
	m := w.metrics.Load()
	if m == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	if err == nil {
		m.fsyncSeconds.Observe(time.Since(start).Seconds())
	}
	return err
}

// OpenWriter opens a Writer on dir, creating it if needed. A fresh
// segment is always started: the previous process's tail (possibly
// torn) is left untouched for the reader.
func OpenWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	idx, err := segmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	seg := 0
	if len(idx) > 0 {
		seg = idx[len(idx)-1] + 1
	}
	f, err := fsys.OpenAppend(filepath.Join(dir, segmentName(seg)))
	if err != nil {
		return nil, fmt.Errorf("wal: opening segment %d: %w", seg, err)
	}
	w := &Writer{
		dir:          dir,
		opts:         opts,
		fs:           fsys,
		f:            f,
		seg:          seg,
		gatherTarget: minGatherTarget,
		flushC:       make(chan struct{}, 1),
		fullC:        make(chan struct{}, 1),
		doneC:        make(chan struct{}),
		syncC:        make(chan syncReq, 64),
	}
	w.syncWg.Add(1)
	go w.syncLoop()
	w.wg.Add(1)
	go w.flushLoop()
	return w, nil
}

// Dir returns the WAL directory.
func (w *Writer) Dir() string { return w.dir }

// Append logs one record and blocks until it is durable (fsynced).
func (w *Writer) Append(m db.Mutation) error {
	frame, err := appendRecord(nil, m)
	if err != nil {
		return err
	}
	met := w.metrics.Load()
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	err = w.appendFrame(frame)
	if met != nil {
		if err != nil {
			met.appendErrors.Inc()
		} else {
			met.appendSeconds.Observe(time.Since(start).Seconds())
		}
	}
	return err
}

// appendFrame queues one encoded record and blocks until it is
// durable.
func (w *Writer) appendFrame(frame []byte) error {
	done := make(chan error, 1)
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.pending = append(w.pending, frame...)
	w.waiters = append(w.waiters, done)
	if w.opts.GroupWindow > 0 && len(w.waiters) >= w.gatherTarget {
		select {
		case w.fullC <- struct{}{}:
		default: // already signalled
		}
	}
	w.mu.Unlock()
	select {
	case w.flushC <- struct{}{}:
	default: // a flush is already scheduled; it will pick this record up
	}
	return <-done
}

// flushLoop is the single write-stage goroutine: each wakeup drains the
// queue accumulated so far and writes it in one syscall (see flush).
func (w *Writer) flushLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.flushC:
			w.flush(w.gather())
		case <-w.doneC:
			w.flush(nil) // final drain
			return
		}
	}
}

// minGatherTarget is the smallest group a gather releases before the
// window: two, so an appender that stays alone still waits the whole
// window. That is deliberate — the heartbeat coalescer's TouchNodes
// flush commits solo, and releasing it early shifts load onto the
// benchmark's generator before its yardstick is re-based
// (docs/BENCHMARKS.md "Measured and deferred"; ROADMAP item 2 lowers
// this to 1).
const minGatherTarget = 2

// gather holds the group open for company: it returns once gatherTarget
// operations are queued, GroupWindow has elapsed since the wakeup, or
// the writer is closing (so Close never waits out a window), whichever
// is first. It returns the release counter for how the wait ended, for
// flush to count if the group turns out non-empty; nil when
// uninstrumented or closing. With no window (natural batching) there is
// no gather: it returns nil at once.
func (w *Writer) gather() *monitor.Counter {
	if w.opts.GroupWindow <= 0 {
		return nil
	}
	w.mu.Lock()
	select {
	case <-w.fullC: // stale: sent for a queue that has since been drained
	default:
	}
	formed := len(w.waiters) >= w.gatherTarget
	w.mu.Unlock()
	var full, window *monitor.Counter
	if m := w.metrics.Load(); m != nil {
		full, window = m.releaseFull, m.releaseWindow
	}
	if formed {
		return full
	}
	t := time.NewTimer(w.opts.GroupWindow)
	defer t.Stop()
	select {
	case <-w.fullC:
		return full
	case <-t.C:
		return window
	case <-w.doneC:
		return nil
	}
}

// flush is the write stage: it drains the current group, issues its
// write() under ioMu, hands the segment to the sync stage and releases
// ioMu so the next group's write can overlap the fsync. Waiters are
// released here only on a write-path error; otherwise the sync stage
// releases them after their covering fsync. release, when non-nil, is
// the gather's verdict on this group and is counted if the group is not
// empty.
func (w *Writer) flush(release *monitor.Counter) {
	w.ioMu.Lock()
	w.mu.Lock()
	buf, waiters := w.pending, w.waiters
	w.pending, w.waiters = nil, nil
	if len(waiters) > 0 {
		w.gatherTarget = max(len(waiters), minGatherTarget)
	}
	w.mu.Unlock()
	if len(buf) == 0 && len(waiters) == 0 {
		w.ioMu.Unlock()
		return
	}
	if m := w.metrics.Load(); m != nil && len(waiters) > 0 {
		m.groupBatch.Observe(float64(len(waiters)))
		if release != nil {
			release.Inc()
		}
	}
	f, err := w.healForWrite()
	if err == nil && len(buf) > 0 {
		if _, werr := f.Write(buf); werr != nil {
			w.markPoisoned()
			err = fmt.Errorf("wal: appending group: %w", werr)
		}
	}
	if err == nil {
		// Hand off before releasing ioMu so sync requests arrive in
		// write order — the invariant the failure propagation relies on.
		w.syncC <- syncReq{f: f, waiters: waiters}
		w.ioMu.Unlock()
		return
	}
	w.ioMu.Unlock()
	for _, ch := range waiters {
		ch <- err
	}
}

// syncLoop is the sync stage: it fsyncs segments in hand-off order and
// releases each group's waiters once a covering fsync completed.
// Consecutive groups on the same file that accumulated while an earlier
// fsync was in flight share one fsync. After a failed fsync the file is
// remembered as failed: every later group on it — already written
// behind a possible tear — fails without another sync attempt, because
// a retried fsync can report success without the torn bytes being
// readable.
func (w *Writer) syncLoop() {
	defer w.syncWg.Done()
	var failedF File
	var failedErr error
	for {
		first, ok := <-w.syncC
		if !ok {
			return
		}
		batch := []syncReq{first}
	fill:
		for {
			select {
			case r, rok := <-w.syncC:
				if !rok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		for i := 0; i < len(batch); {
			if batch[i].barrier != nil {
				close(batch[i].barrier)
				i++
				continue
			}
			f := batch[i].f
			var waiters []chan error
			j := i
			for j < len(batch) && batch[j].barrier == nil && batch[j].f == f {
				waiters = append(waiters, batch[j].waiters...)
				j++
			}
			var err error
			if f == failedF {
				err = failedErr
			} else if serr := w.timedSync(f); serr != nil {
				err = fmt.Errorf("wal: syncing group: %w", serr)
				failedF, failedErr = f, err
				// The failing segment is still the current one: every
				// swap point (heal, rotate, close) drains this stage
				// first, so no swap can have happened since hand-off.
				w.markPoisoned()
			}
			for _, ch := range waiters {
				ch <- err
			}
			i = j
		}
	}
}

// drainSync blocks until every group already handed to the sync stage
// has completed. Callers hold ioMu, so no new hand-offs can race the
// barrier; it is how rotation, heal and close wait out the pipeline
// before swapping or closing a segment file.
func (w *Writer) drainSync() {
	done := make(chan struct{})
	w.syncC <- syncReq{barrier: done}
	<-done
}

// markPoisoned flags the current segment after a failed write or sync:
// its tail may hold a torn frame, and nothing may be appended behind a
// tear (the reader stops at the first bad frame, so later records would
// be unreachable even if written intact).
func (w *Writer) markPoisoned() {
	w.mu.Lock()
	w.poisoned = true
	w.mu.Unlock()
}

// healForWrite returns the segment file to write to, first advancing
// past a poisoned segment so acknowledged records never land behind a
// torn tail. If opening the next segment also fails, the append must
// fail rather than fall back to the poisoned file: an open can fail (fd
// or inode exhaustion) while writes to the already-open file would still
// succeed — and a write that succeeds behind a tear would be
// acknowledged yet unreadable on recovery. A failed close of the
// poisoned segment does not fail the append. Caller holds ioMu.
func (w *Writer) healForWrite() (File, error) {
	w.mu.Lock()
	f, poisoned := w.f, w.poisoned
	w.mu.Unlock()
	if !poisoned {
		return f, nil
	}
	nf, _, _, err := w.advance()
	if err != nil {
		return nil, fmt.Errorf("wal: healing onto %w", err)
	}
	return nf, nil
}

// advance retires the current segment for the next one — the one segment
// advance behind both a snapshot cut (Rotate) and a poison heal
// (healForWrite). It first waits out the sync stage, so every group
// already written to the retiring segment has its fsync verdict (an ack,
// or the poison of a failed fsync) before the file is swapped or closed.
// It then opens segment seg+1, swaps it in with poisoned cleared, closes
// the retired file and counts the rotation. It returns the new file and
// index, or the open's error with nothing changed; closeErr is the
// retired file's close error, which only Rotate reports. Queued records
// are not touched: the next flush writes them to whatever segment is
// current. Caller holds ioMu.
func (w *Writer) advance() (nf File, next int, closeErr, err error) {
	w.drainSync()
	w.mu.Lock()
	next = w.seg + 1
	w.mu.Unlock()
	nf, err = w.fs.OpenAppend(filepath.Join(w.dir, segmentName(next)))
	if err != nil {
		return nil, 0, nil, fmt.Errorf("segment %d: %w", next, err)
	}
	w.mu.Lock()
	old := w.f
	w.f, w.seg, w.poisoned = nf, next, false
	w.mu.Unlock()
	closeErr = old.Close()
	if m := w.metrics.Load(); m != nil {
		m.rotations.Inc()
	}
	return nf, next, closeErr, nil
}

// Rotate retires the current segment and starts the next one, returning
// the new segment's index: the snapshot cut point. Every record in a
// segment below the cut was durable before Rotate returned — advance
// drains the sync stage under ioMu, so no group can be written to the
// retiring segment after that drain — and so carries an LSN at or below
// any watermark read afterwards. That is what makes deleting those
// segments after a successful snapshot safe. Records still queued at the
// cut are not Rotate's: they commit with their own group through the
// pipeline, into the new segment, and replay idempotently on recovery
// like any record above a cut. Rotate fails if the next segment cannot
// be opened (the current one stays in use) or the retired one fails to
// close.
func (w *Writer) Rotate() (int, error) {
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	w.mu.Lock()
	closed := w.closed
	w.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	_, next, closeErr, err := w.advance()
	if err != nil {
		return 0, fmt.Errorf("wal: rotating to %w", err)
	}
	if closeErr != nil {
		return 0, fmt.Errorf("wal: closing rotated segment: %w", closeErr)
	}
	return next, nil
}

// Close drains pending records, syncs, and closes the segment. Appends
// after Close fail with ErrClosed.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.doneC)
	w.wg.Wait()
	// The flush loop is done, and ErrClosed gates new appends, so no
	// further hand-offs can happen: drain the sync stage and stop it
	// before the final sync+close below.
	close(w.syncC)
	w.syncWg.Wait()
	w.ioMu.Lock()
	defer w.ioMu.Unlock()
	if err := w.f.Sync(); err != nil {
		_ = w.f.Close()
		return fmt.Errorf("wal: syncing on close: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("wal: closing segment: %w", err)
	}
	return nil
}
