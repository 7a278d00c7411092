package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// DirStore is a filesystem-backed Store for a daemon's on-disk
// checkpoints (no shipped binary opens one yet): each key becomes a file
// under the root directory. Keys may contain '/'
// (subdirectories are created as needed); path traversal outside the
// root is rejected.
type DirStore struct {
	root string
	mu   sync.Mutex
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("storage: resolving %s: %w", root, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", abs, err)
	}
	return &DirStore{root: abs}, nil
}

// path maps a key to a file path, rejecting traversal.
func (d *DirStore) path(key string) (string, error) {
	if key == "" {
		return "", errors.New("storage: empty key")
	}
	clean := filepath.Clean(filepath.FromSlash(key))
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) {
		return "", fmt.Errorf("storage: key %q escapes the store root", key)
	}
	return filepath.Join(d.root, clean), nil
}

// Put writes data to the key's file atomically (write + rename).
func (d *DirStore) Put(key string, data []byte) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("storage: creating parent of %s: %w", key, err)
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("storage: committing %s: %w", key, err)
	}
	return nil
}

// Get reads the key's file.
func (d *DirStore) Get(key string) ([]byte, error) {
	p, err := d.path(key)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("storage: reading %s: %w", key, err)
	}
	return data, nil
}

// Delete removes the key's file; missing keys are not an error.
func (d *DirStore) Delete(key string) error {
	p, err := d.path(key)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("storage: deleting %s: %w", key, err)
	}
	return nil
}

// List returns sorted keys with the given prefix.
func (d *DirStore) List(prefix string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var keys []string
	err := filepath.WalkDir(d.root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if entry.IsDir() || strings.HasSuffix(p, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("storage: listing %s: %w", prefix, err)
	}
	sort.Strings(keys)
	return keys, nil
}
