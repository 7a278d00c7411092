package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"testing/quick"
)

func newDirStore(t *testing.T) *DirStore {
	t.Helper()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDirStoreRoundTrip(t *testing.T) {
	s := newDirStore(t)
	if err := s.Put("ckpt/j1/00000001", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("ckpt/j1/00000001")
	if err != nil || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestDirStoreMissingKey(t *testing.T) {
	s := newDirStore(t)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDirStoreOverwrite(t *testing.T) {
	s := newDirStore(t)
	_ = s.Put("k", []byte("old"))
	if err := s.Put("k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("k")
	if string(got) != "new" {
		t.Fatalf("Get = %q", got)
	}
}

func TestDirStoreDelete(t *testing.T) {
	s := newDirStore(t)
	_ = s.Put("k", []byte("v"))
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("key survived delete")
	}
	if err := s.Delete("missing"); err != nil {
		t.Fatalf("deleting missing key: %v", err)
	}
}

func TestDirStoreListPrefix(t *testing.T) {
	s := newDirStore(t)
	for _, k := range []string{"ckpt/j1/1", "ckpt/j1/2", "ckpt/j2/1", "out/x"} {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("ckpt/j1/")
	if err != nil || len(keys) != 2 {
		t.Fatalf("List = %v, %v", keys, err)
	}
	all, _ := s.List("")
	if len(all) != 4 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestDirStoreRejectsTraversal(t *testing.T) {
	s := newDirStore(t)
	for _, k := range []string{"../escape", "/abs/path", ""} {
		if err := s.Put(k, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted", k)
		}
		if _, err := s.Get(k); err == nil {
			t.Errorf("Get(%q) accepted", k)
		}
	}
	// Nothing escaped the root.
	parent := filepath.Dir(s.root)
	if _, err := os.Stat(filepath.Join(parent, "escape")); err == nil {
		t.Fatal("traversal escaped the store root")
	}
}

func TestDirStorePersistsAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestDirStoreImplementsStore(t *testing.T) {
	var _ Store = newDirStore(t)
}

// Property: DirStore and MemStore agree on a random operation sequence.
func TestDirStoreMatchesMemStoreProperty(t *testing.T) {
	type op struct {
		Key uint8
		Val uint8
		Del bool
	}
	s := newDirStore(t)
	m := NewMemStore(0)
	f := func(ops []op) bool {
		for _, o := range ops {
			k := "k/" + string(rune('a'+o.Key%8))
			if o.Del {
				if (s.Delete(k) == nil) != (m.Delete(k) == nil) {
					return false
				}
			} else {
				v := []byte{o.Val}
				if (s.Put(k, v) == nil) != (m.Put(k, v) == nil) {
					return false
				}
			}
			dv, derr := s.Get(k)
			mv, merr := m.Get(k)
			if (derr == nil) != (merr == nil) {
				return false
			}
			if derr == nil && !bytes.Equal(dv, mv) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
