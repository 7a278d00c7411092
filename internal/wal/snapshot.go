package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpunion/internal/db"
)

// SnapshotFile is the checkpoint file name inside a WAL directory.
const SnapshotFile = "snapshot.json"

// writeSnapshotFile atomically replaces dir/snapshot.json with st:
// write to a temp file, fsync it, rename over the old snapshot, fsync
// the directory. A crash at any point leaves either the old or the new
// snapshot intact, never a torn one.
func writeSnapshotFile(dir string, st db.State) error {
	tmp, err := os.CreateTemp(dir, SnapshotFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("wal: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if err := json.NewEncoder(tmp).Encode(st); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: closing snapshot temp file: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, SnapshotFile)); err != nil {
		return fmt.Errorf("wal: installing snapshot: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// readSnapshotFile loads dir/snapshot.json. ok is false when no
// snapshot exists yet (a WAL-only recovery).
func readSnapshotFile(dir string) (st db.State, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, SnapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return db.State{}, false, nil
		}
		return db.State{}, false, fmt.Errorf("wal: opening snapshot: %w", err)
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(&st); err != nil {
		return db.State{}, false, fmt.Errorf("wal: decoding snapshot: %w", err)
	}
	return st, true, nil
}

// Snapshotter checkpoints a store into a WAL directory in the
// background and truncates the log segments the checkpoint obsoletes.
// The store is serialized one lock at a time through ExportState —
// brief read locks on each node shard and each other table, never a
// global quiesce — so heartbeat and job commits proceed while a
// snapshot is in flight.
type Snapshotter struct {
	dir   string
	store db.Store
	w     *Writer

	// snapMu serializes whole checkpoints: an explicit Checkpoint (e.g.
	// at shutdown) racing the interval ticker must not interleave its
	// rotate/export/install/truncate steps with another's — the slower
	// snapshot could otherwise install an older watermark after the
	// faster one already deleted the segments that cover the gap.
	snapMu sync.Mutex

	mu      sync.Mutex
	lastErr error

	stopOnce sync.Once
	stopC    chan struct{}
	wg       sync.WaitGroup
}

// NewSnapshotter creates a Snapshotter writing to the Writer's
// directory.
func NewSnapshotter(store db.Store, w *Writer) *Snapshotter {
	return &Snapshotter{dir: w.Dir(), store: store, w: w, stopC: make(chan struct{})}
}

// Snapshot takes one checkpoint now:
//  1. rotate the log, freezing all segments below the cut;
//  2. export the store one lock at a time (the export's watermark is read
//     after the rotation, so every record in a frozen segment is at or
//     below it and therefore fully contained in the export);
//  3. atomically install the snapshot file;
//  4. delete the frozen segments.
func (s *Snapshotter) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	cut, err := s.w.Rotate()
	if err != nil {
		return s.record(err)
	}
	st := s.store.ExportState()
	if err := writeSnapshotFile(s.dir, st); err != nil {
		return s.record(err)
	}
	idx, err := segmentIndexes(s.dir)
	if err != nil {
		return s.record(err)
	}
	for _, i := range idx {
		if i < cut {
			if rerr := os.Remove(filepath.Join(s.dir, segmentName(i))); rerr != nil && err == nil {
				err = fmt.Errorf("wal: truncating segment %d: %w", i, rerr)
			}
		}
	}
	return s.record(err)
}

// Start checkpoints every interval until Stop. Snapshot errors are
// retained (Err) and retried at the next tick rather than aborting the
// loop — a full disk now should not disable durability forever.
func (s *Snapshotter) Start(interval time.Duration) {
	if interval <= 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				_ = s.Snapshot()
			case <-s.stopC:
				return
			}
		}
	}()
}

// Stop halts the background loop (idempotent).
func (s *Snapshotter) Stop() {
	s.stopOnce.Do(func() { close(s.stopC) })
	s.wg.Wait()
}

// Err returns the most recent snapshot error, if any.
func (s *Snapshotter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Snapshotter) record(err error) error {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
	return err
}
