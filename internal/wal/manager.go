package wal

import (
	"fmt"
	"log"
	"sync"
	"time"

	"gpunion/internal/db"
)

// Config tunes a Manager.
type Config struct {
	// GroupWindow is the longest a commit waits for company (see
	// Options.GroupWindow); zero is natural batching.
	GroupWindow time.Duration
	// SnapshotInterval is the background checkpoint period; zero means
	// snapshots happen only via Checkpoint.
	SnapshotInterval time.Duration
	// OnDurable, when non-nil, is invoked after a mutation is durably
	// logged but before the store acknowledges it to its caller. It is
	// the semi-synchronous replication hook: a harness that ships the
	// record to a standby inside OnDurable guarantees "acknowledged ⇒
	// on the standby", which is what the zero-lost-acked-mutations
	// invariant needs across a leader kill. May be called concurrently
	// (one call per committing goroutine).
	OnDurable func(db.Mutation)
	// OnAppendError is invoked the moment logging a mutation fails —
	// the store has already applied the mutation in memory, so from
	// that record on the process is running non-durable and the
	// operator must know *now*, not at Close. Nil logs via the standard
	// logger. The error also stays readable through Err.
	OnAppendError func(error)
	// FS opens log segment files (nil = the real filesystem); the
	// chaos harness injects disk faults through it.
	FS FS
}

// Manager ties a store to its WAL directory: Open recovers the store
// from snapshot + log, installs the mutation hook so every subsequent
// commit is group-logged before it is acknowledged, and runs the
// background snapshotter.
type Manager struct {
	store  db.Store
	writer *Writer
	snap   *Snapshotter
	// Recovery reports what Open restored.
	Recovery RecoveryResult

	mu        sync.Mutex
	appendErr error
	closeOnce sync.Once
	closeErr  error
}

// Open recovers store from dir and starts logging its mutations there.
func Open(dir string, store db.Store, cfg Config) (*Manager, error) {
	res, err := Recover(dir, store)
	if err != nil {
		return nil, err
	}
	w, err := OpenWriter(dir, Options{GroupWindow: cfg.GroupWindow, FS: cfg.FS})
	if err != nil {
		return nil, err
	}
	m := &Manager{store: store, writer: w, snap: NewSnapshotter(store, w), Recovery: res}
	onErr := cfg.OnAppendError
	if onErr == nil {
		onErr = func(err error) { log.Printf("wal: DURABILITY LOST, mutation not logged: %v", err) }
	}
	store.SetMutationHook(func(mut db.Mutation) {
		if err := w.Append(mut); err != nil {
			m.mu.Lock()
			m.appendErr = err
			m.mu.Unlock()
			onErr(err)
			return
		}
		if cfg.OnDurable != nil {
			cfg.OnDurable(mut)
		}
	})
	m.snap.Start(cfg.SnapshotInterval)
	return m, nil
}

// Writer exposes the underlying log writer (diagnostics and tests).
func (m *Manager) Writer() *Writer { return m.writer }

// Checkpoint takes one snapshot now and truncates obsolete segments.
func (m *Manager) Checkpoint() error { return m.snap.Snapshot() }

// Err surfaces the most recent append or snapshot failure, if any.
func (m *Manager) Err() error {
	m.mu.Lock()
	err := m.appendErr
	m.mu.Unlock()
	if err != nil {
		return err
	}
	return m.snap.Err()
}

// Close detaches the hook, stops the snapshotter and closes the log.
// Records appended before Close remain durable; no final snapshot is
// taken (recovery replays the tail), so Close doubles as the "crash"
// boundary in tests that only guarantee what fsync guaranteed.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.store.SetMutationHook(nil)
		m.snap.Stop()
		m.closeErr = m.writer.Close()
		if m.closeErr == nil {
			if err := m.Err(); err != nil {
				m.closeErr = fmt.Errorf("wal: deferred failure: %w", err)
			}
		}
	})
	return m.closeErr
}
