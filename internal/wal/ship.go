package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"gpunion/internal/db"
)

// Shipper tails a WAL directory incrementally: each Poll decodes the
// complete frames appended since the previous Poll, across segment
// rotations, and returns them in log order. It is the leader side of
// log shipping — the standby applies what Poll returns through a
// Follower.
//
// The shipper reads the same CRC-framed segments the recovery path
// reads, so every torn-tail rule carries over: a torn tail on the
// *latest* segment may be a group flush in flight and is retried on
// the next Poll (the cursor does not advance past it); a torn tail on
// a segment that already has a successor is permanent (the writer
// poisoned the segment and healed onto the next one — the torn frame
// was never acknowledged), so the shipper skips past it.
//
// A snapshot truncation that removes the cursor's segment surfaces as
// *GapError: the truncated records exist only in the snapshot now, and
// the caller decides whether the follower already has them (applied
// LSN at or above the snapshot watermark) or needs a full resync.
type Shipper struct {
	dir string

	mu     sync.Mutex
	seg    int   // segment index the cursor is on
	off    int64 // bytes of complete frames consumed in seg
	primed bool  // cursor initialized from the first Poll's listing
}

// GapError reports that log shipping hit a snapshot truncation: the
// cursor's segment was deleted, so records up to Watermark are only
// available via the snapshot.
type GapError struct {
	// Watermark is the truncating snapshot's LSN watermark; every
	// truncated record has an LSN at or below it.
	Watermark uint64
}

// Error implements the error interface.
func (e *GapError) Error() string {
	return fmt.Sprintf("wal: shipped-past segments truncated by snapshot (watermark %d)", e.Watermark)
}

// NewShipper tails the WAL segments in dir, starting from the oldest
// segment present at the first Poll.
func NewShipper(dir string) *Shipper {
	return &Shipper{dir: dir}
}

// Dir returns the directory being tailed.
func (s *Shipper) Dir() string { return s.dir }

// Poll returns every complete record appended since the last Poll, in
// log order. A nil slice with a nil error means nothing new. On
// *GapError the cursor has not moved; resolve via SkipToOldest (records
// already covered) or a full resync, then Poll again.
func (s *Shipper) Poll() ([]db.Mutation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := segmentIndexes(s.dir)
	if err != nil {
		return nil, err
	}
	if len(idx) == 0 {
		return nil, nil
	}
	if !s.primed {
		s.seg, s.off, s.primed = idx[0], 0, true
	}
	if s.seg < idx[0] {
		// The cursor's segment was truncated by a snapshot. Report the
		// snapshot's watermark so the caller can tell whether the
		// follower already holds everything the lost segments held.
		st, ok, err := readSnapshotFile(s.dir)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, &GapError{}
		}
		return nil, &GapError{Watermark: st.Watermark}
	}
	var out []db.Mutation
	for pos := 0; pos < len(idx); pos++ {
		i := idx[pos]
		if i < s.seg {
			continue
		}
		if i > s.seg {
			// Finished (or skipped past) the previous segment; start the
			// next one from its beginning.
			s.seg, s.off = i, 0
		}
		data, err := os.ReadFile(filepath.Join(s.dir, segmentName(s.seg)))
		if err != nil {
			if os.IsNotExist(err) {
				// Deleted between listing and read (racing truncation);
				// the next Poll sees the gap, if any remains.
				continue
			}
			return out, fmt.Errorf("wal: shipping segment %d: %w", s.seg, err)
		}
		if int64(len(data)) < s.off {
			// Append-only segments never shrink; a shorter file means the
			// segment was replaced out from under us.
			return out, fmt.Errorf("wal: segment %d shrank under the shipper", s.seg)
		}
		recs, consumed, torn := decodeFramesConsumed(data[s.off:])
		out = append(out, recs...)
		s.off += int64(consumed)
		if torn && pos == len(idx)-1 {
			// The latest segment's tail may be a flush in flight: leave
			// the cursor at the last complete frame and retry next Poll.
			break
		}
		// torn with a successor segment: the writer poisoned this segment
		// and healed onto the next; the torn bytes were never
		// acknowledged, so falling through to the next index skips them.
	}
	return out, nil
}

// LagBytes reports how many on-disk log bytes the cursor has not yet
// consumed: the unread remainder of the cursor's segment plus every
// later segment, in full. This is the shipping backlog an operator
// watches — a growing value means the standby is falling behind the
// leader's append rate. Before the first Poll primes the cursor, the
// entire log counts as lag.
func (s *Shipper) LagBytes() (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := segmentIndexes(s.dir)
	if err != nil {
		return 0, err
	}
	var lag int64
	for _, i := range idx {
		if s.primed && i < s.seg {
			continue
		}
		fi, err := os.Stat(filepath.Join(s.dir, segmentName(i)))
		if err != nil {
			if os.IsNotExist(err) {
				continue // truncated between listing and stat
			}
			return 0, err
		}
		sz := fi.Size()
		if s.primed && i == s.seg {
			sz -= s.off
			if sz < 0 {
				sz = 0
			}
		}
		lag += sz
	}
	return lag, nil
}

// SkipToOldest moves the cursor to the start of the oldest segment now
// present. Callers use it to resolve a *GapError after confirming the
// follower already holds everything the truncated segments held.
func (s *Shipper) SkipToOldest() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, err := segmentIndexes(s.dir)
	if err != nil {
		return err
	}
	if len(idx) == 0 {
		s.primed = false
		return nil
	}
	s.seg, s.off, s.primed = idx[0], 0, true
	return nil
}

// Follower applies shipped records to a standby store in strict LSN
// order. LSNs are dense (the store allocates them with a +1 counter and
// every mutation is logged exactly once), so the follower applies the
// contiguous run starting at its applied watermark and buffers
// out-of-order arrivals — the group-commit queue and post-unlock hook
// calls can legally write records slightly out of LSN order, and
// after-images must land last-writer-wins (see Recover, which sorts for
// the same reason).
type Follower struct {
	store db.Store

	mu      sync.Mutex
	applied uint64                 // highest LSN applied, contiguously from bootstrap
	pending map[uint64]db.Mutation // out-of-order arrivals awaiting their predecessors
}

// NewFollower wraps a standby store. Bootstrap the store first (e.g.
// wal.Recover from the leader's directory, or start empty and ship from
// the first segment); the follower resumes from the store's current LSN
// watermark.
func NewFollower(store db.Store) *Follower {
	return &Follower{store: store, applied: store.ExportState().Watermark, pending: map[uint64]db.Mutation{}}
}

// AppliedLSN returns the highest contiguously applied LSN.
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.applied
}

// Offer feeds shipped records to the standby: records at or below the
// applied watermark are duplicates (re-shipped segment prefixes) and
// dropped; the contiguous run above it is applied immediately; anything
// further ahead is buffered until its predecessors arrive.
func (f *Follower) Offer(recs []db.Mutation) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range recs {
		if m.LSN <= f.applied {
			continue
		}
		f.pending[m.LSN] = m
	}
	return f.applyContiguousLocked()
}

func (f *Follower) applyContiguousLocked() error {
	for {
		m, ok := f.pending[f.applied+1]
		if !ok {
			return nil
		}
		if err := f.store.Apply(m); err != nil {
			return err
		}
		delete(f.pending, m.LSN)
		f.applied = m.LSN
	}
}

// Drain force-applies every buffered record in LSN order, holes
// included, and returns how many it applied. This is the promotion
// step: an LSN hole at drain time is a record that was never durably
// logged on the old leader (its append failed — the operator was told
// durability was lost), so waiting for it is waiting forever. Sorting
// before applying preserves last-writer-wins, exactly as Recover does.
func (f *Follower) Drain() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.pending) == 0 {
		return 0, nil
	}
	lsns := make([]uint64, 0, len(f.pending))
	for lsn := range f.pending {
		lsns = append(lsns, lsn)
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] < lsns[j] })
	n := 0
	for _, lsn := range lsns {
		m := f.pending[lsn]
		if err := f.store.Apply(m); err != nil {
			return n, err
		}
		delete(f.pending, lsn)
		if lsn > f.applied {
			f.applied = lsn
		}
		n++
	}
	return n, nil
}

// Pump is the standard shipping step: Poll the shipper and Offer the
// result, resolving snapshot-truncation gaps automatically — if the
// follower's applied watermark already covers the truncating snapshot,
// the cursor skips to the oldest surviving segment; otherwise the
// standby has fallen behind what the log still holds and is
// re-bootstrapped wholesale from the leader directory (snapshot +
// replay through Recover).
func (f *Follower) Pump(s *Shipper) error {
	for attempt := 0; ; attempt++ {
		recs, err := s.Poll()
		if err == nil {
			return f.Offer(recs)
		}
		var gap *GapError
		if !errors.As(err, &gap) || attempt > 0 {
			return err
		}
		if gap.Watermark <= f.AppliedLSN() {
			if err := s.SkipToOldest(); err != nil {
				return err
			}
			continue
		}
		if err := f.Resync(s.Dir()); err != nil {
			return err
		}
		if err := s.SkipToOldest(); err != nil {
			return err
		}
	}
}

// Resync re-bootstraps the standby from the leader's directory: import
// the snapshot and replay the surviving log through Recover, then reset
// the follower's watermark to the store's. Used when shipping fell so
// far behind that a snapshot truncated records the follower never saw.
func (f *Follower) Resync(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, err := Recover(dir, f.store); err != nil {
		return err
	}
	f.applied = f.store.ExportState().Watermark
	f.pending = map[uint64]db.Mutation{}
	return nil
}
