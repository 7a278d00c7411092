package chaos

import (
	"sync"

	"gpunion/internal/storage"
)

// FaultBlobStore implements storage.Store over a real backing store
// with switchable silent-corruption modes: bit flips and truncation,
// applied to blobs as they are written. The damaged bytes really land
// in the backing store and the write reports success — the disk lies —
// which is exactly the failure the checkpoint store's CRC frames and
// generation fallback must absorb.
//
// To keep runs deterministic while still interleaving good and bad
// generations, damage is applied to every second write during a fault
// window (the driver goroutine serializes writes, so the counter needs
// only its mutex).
// Read-side rot (KindCkptReadRot) is the complementary gray failure:
// the stored bytes are intact, but reads return damaged copies — media
// rot surfacing at restore time, after every write was acknowledged
// clean. The same every-other cadence applies, counted per read.
type FaultBlobStore struct {
	inner storage.Store

	mu   sync.Mutex
	mode CkptFaultMode
	// writes counts Puts observed while a fault window is open (the
	// every-other-write cadence); injected counts damage delivered.
	writes   int
	injected int
	// readRot toggles read-path damage; reads and readInjected mirror
	// the write-side counters.
	readRot      bool
	reads        int
	readInjected int
}

// NewFaultBlobStore wraps a backing blob store, initially healthy.
func NewFaultBlobStore(inner storage.Store) *FaultBlobStore {
	return &FaultBlobStore{inner: inner}
}

// SetMode switches the injected damage behaviour.
func (f *FaultBlobStore) SetMode(m CkptFaultMode) {
	f.mu.Lock()
	f.mode = m
	f.mu.Unlock()
}

// Injected reports how many writes were actually damaged.
func (f *FaultBlobStore) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// SetReadRot toggles silent damage on the read path. Unlike the write
// modes, the backing store stays intact — only the returned copies rot.
func (f *FaultBlobStore) SetReadRot(enabled bool) {
	f.mu.Lock()
	f.readRot = enabled
	f.mu.Unlock()
}

// ReadInjected reports how many reads were actually damaged.
func (f *FaultBlobStore) ReadInjected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readInjected
}

// Put stores data, possibly damaged, and reports success either way.
func (f *FaultBlobStore) Put(key string, data []byte) error {
	f.mu.Lock()
	mode := f.mode
	damage := false
	if mode != CkptHealthy && len(data) > 1 {
		f.writes++
		if f.writes%2 == 1 {
			damage = true
			f.injected++
		}
	}
	n := f.injected
	f.mu.Unlock()

	if damage {
		bad := append([]byte(nil), data...)
		switch mode {
		case CkptBitFlip:
			// Deterministic position, varied across injections.
			bad[(n*31)%len(bad)] ^= 0x10
		case CkptTruncate:
			bad = bad[:len(bad)/2]
		}
		data = bad
	}
	return f.inner.Put(key, data)
}

// Get returns the stored blob, damaging every second copy while a
// read-rot window is open. The damage is applied to a private copy:
// re-reads outside the window see the intact bytes again.
func (f *FaultBlobStore) Get(key string) ([]byte, error) {
	data, err := f.inner.Get(key)
	if err != nil {
		return data, err
	}
	f.mu.Lock()
	damage := false
	if f.readRot && len(data) > 1 {
		f.reads++
		if f.reads%2 == 1 {
			damage = true
			f.readInjected++
		}
	}
	n := f.readInjected
	f.mu.Unlock()
	if damage {
		bad := append([]byte(nil), data...)
		bad[(n*37)%len(bad)] ^= 0x20
		data = bad
	}
	return data, nil
}

// Delete implements storage.Store.
func (f *FaultBlobStore) Delete(key string) error { return f.inner.Delete(key) }

// List implements storage.Store.
func (f *FaultBlobStore) List(prefix string) ([]string, error) { return f.inner.List(prefix) }
