// Package storage implements GPUnion's flexible data-storage
// architecture (§3.2): users pin workload data, checkpoints and outputs
// to storage locations they choose — their own machine, a lab NAS, or a
// provider node — while provider nodes offer local scratch space for
// temporary data.
//
// The package provides a uniform key/value blob Store interface, an
// in-memory implementation with a capacity bound (provider scratch) and
// a directory-backed one (dirstore.go). Checkpoints go through it
// (checkpoint.Store); a user's storage preference list is recorded on
// the job but no shipped agent resolves it to a store.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by stores.
var (
	ErrNotFound = errors.New("storage: key not found")
	ErrCapacity = errors.New("storage: capacity exceeded")
)

// Store is a flat key → blob store. Implementations must be safe for
// concurrent use.
type Store interface {
	// Put stores data under key, overwriting any previous value.
	Put(key string, data []byte) error
	// Get returns the data stored under key.
	Get(key string) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error.
	Delete(key string) error
	// List returns the keys with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// MemStore is an in-memory Store with an optional capacity bound,
// modelling a provider node's local scratch volume.
type MemStore struct {
	mu       sync.RWMutex
	data     map[string][]byte
	used     int64
	capacity int64 // 0 = unbounded
}

// NewMemStore creates a store bounded to capacity bytes (0 = unbounded).
func NewMemStore(capacity int64) *MemStore {
	return &MemStore{data: make(map[string][]byte), capacity: capacity}
}

// Put stores a copy of data under key.
func (m *MemStore) Put(key string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	old := int64(len(m.data[key]))
	next := m.used - old + int64(len(data))
	if m.capacity > 0 && next > m.capacity {
		return fmt.Errorf("%w: %d + %d > %d", ErrCapacity, m.used-old, len(data), m.capacity)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.data[key] = cp
	m.used = next
	return nil
}

// Get returns a copy of the value stored under key.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.data[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	cp := make([]byte, len(v))
	copy(cp, v)
	return cp, nil
}

// Delete removes key.
func (m *MemStore) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.data[key]; ok {
		m.used -= int64(len(v))
		delete(m.data, key)
	}
	return nil
}

// List returns sorted keys with the prefix.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var keys []string
	for k := range m.data {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, nil
}
