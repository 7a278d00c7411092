package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"gpunion/internal/wal"
)

// fileLeaseStore is a LeaseStore over a JSON record on a file system
// shared by every coordinator replica — the same place the WAL lives —
// so a daemon that loses the file observes its own expiry and
// self-fences before a successor can be granted.
//
// Mutual exclusion across processes uses an O_EXCL lock file; the
// record itself is replaced atomically and durably (wal.ReplaceFile:
// synced before the rename, the directory after it), so neither a
// reader nor a host crash can bring back a torn or an older grant.
type fileLeaseStore struct{ path string }

// FileLeaseStore returns the LeaseStore backed by the file at path.
func FileLeaseStore(path string) LeaseStore { return fileLeaseStore{path: path} }

// Load reads the record without taking the lock: the rename makes every
// version a reader can see a complete one.
func (s fileLeaseStore) Load() LeaseRecord {
	var rec LeaseRecord
	if b, err := os.ReadFile(s.path); err == nil {
		// A corrupt or partial record reads as a free lease; Lease floors
		// the lost epoch to the highest it has seen, and every grant still
		// goes through Acquire's increment under the lock.
		if json.Unmarshal(b, &rec) != nil {
			return LeaseRecord{}
		}
	}
	return rec
}

// Update runs fn on the current record under the cross-process lock.
// It waits while other replicas keep taking the lock, and fails busy
// only when one lock stays held for two seconds.
func (s fileLeaseStore) Update(fn func(rec *LeaseRecord) error) error {
	lock := s.path + ".lock"
	deadline := time.Now().Add(2 * time.Second)
	var seen time.Time
	for {
		f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			f.Close()
			break
		}
		if !os.IsExist(err) {
			return err
		}
		if fi, statErr := os.Stat(lock); statErr == nil {
			// A lock much older than any critical section is a crashed
			// replica's leftover; break it.
			if time.Since(fi.ModTime()) > 5*time.Second {
				_ = os.Remove(lock)
				continue
			}
			// A newer lock than the last one seen is a holder that made
			// progress: the wait restarts, so busy means one lock was
			// held for the whole deadline.
			if fi.ModTime().After(seen) {
				seen = fi.ModTime()
				deadline = time.Now().Add(2 * time.Second)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("lease: lock %s busy", lock)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer os.Remove(lock)

	rec := s.Load()
	if err := fn(&rec); err != nil {
		return err
	}
	return wal.ReplaceFile(s.path, func(w io.Writer) error { return json.NewEncoder(w).Encode(rec) })
}
