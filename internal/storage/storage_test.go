package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestMemStorePutGetRoundTrip(t *testing.T) {
	s := NewMemStore(0)
	if err := s.Put("a/b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestMemStoreGetMissing(t *testing.T) {
	s := NewMemStore(0)
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// assertUsed checks that exactly used of capBytes are taken: a value
// filling the rest fits and one byte more is refused.
func assertUsed(t *testing.T, s *MemStore, capBytes, used int) {
	t.Helper()
	if err := s.Put("probe", make([]byte, capBytes-used+1)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("Put of %d free bytes + 1: err = %v, want ErrCapacity", capBytes-used, err)
	}
	if err := s.Put("probe", make([]byte, capBytes-used)); err != nil {
		t.Fatalf("Put of the %d free bytes: %v", capBytes-used, err)
	}
	if err := s.Delete("probe"); err != nil {
		t.Fatal(err)
	}
}

func TestMemStoreOverwriteAdjustsUsage(t *testing.T) {
	s := NewMemStore(100)
	if err := s.Put("k", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", make([]byte, 40)); err != nil {
		t.Fatal(err)
	}
	assertUsed(t, s, 100, 40)
}

func TestMemStoreDelete(t *testing.T) {
	s := NewMemStore(10)
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatal("key survived delete")
	}
	assertUsed(t, s, 10, 0)
	if err := s.Delete("missing"); err != nil {
		t.Fatalf("deleting missing key: %v", err)
	}
}

func TestMemStoreCapacityEnforced(t *testing.T) {
	s := NewMemStore(100)
	if err := s.Put("a", make([]byte, 80)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", make([]byte, 30)); !errors.Is(err, ErrCapacity) {
		t.Fatalf("over-capacity Put err = %v, want ErrCapacity", err)
	}
	// Overwriting within capacity is fine even when near the bound.
	if err := s.Put("a", make([]byte, 100)); err != nil {
		t.Fatalf("in-place overwrite to exactly capacity: %v", err)
	}
}

func TestMemStoreFailedPutLeavesStateIntact(t *testing.T) {
	s := NewMemStore(50)
	if err := s.Put("a", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", make([]byte, 60)); !errors.Is(err, ErrCapacity) {
		t.Fatal("expected capacity error")
	}
	got, err := s.Get("a")
	if err != nil || string(got) != "old" {
		t.Fatalf("value after failed Put = %q, %v", got, err)
	}
}

func TestMemStoreListPrefix(t *testing.T) {
	s := NewMemStore(0)
	for _, k := range []string{"ckpt/j1/1", "ckpt/j1/2", "ckpt/j2/1", "out/j1"} {
		if err := s.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("ckpt/j1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "ckpt/j1/1" || keys[1] != "ckpt/j1/2" {
		t.Fatalf("List = %v", keys)
	}
	all, _ := s.List("")
	if len(all) != 4 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestMemStoreGetReturnsCopy(t *testing.T) {
	s := NewMemStore(0)
	if err := s.Put("k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Get("k")
	v[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

func TestMemStorePutCopiesInput(t *testing.T) {
	s := NewMemStore(0)
	buf := []byte("abc")
	if err := s.Put("k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	v, _ := s.Get("k")
	if string(v) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore(32)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			for j := 0; j < 50; j++ {
				if err := s.Put(key, []byte{byte(j)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	assertUsed(t, s, 32, 16)
}

// Property: the bytes counted against capacity always equal the sum of
// current value lengths.
func TestMemStoreUsageInvariantProperty(t *testing.T) {
	type op struct {
		Key  uint8
		Size uint8
		Del  bool
	}
	const capBytes = 8 * 255
	f := func(ops []op) bool {
		s := NewMemStore(capBytes)
		shadow := make(map[string]int64)
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			if o.Del {
				if err := s.Delete(k); err != nil {
					return false
				}
				delete(shadow, k)
			} else {
				if err := s.Put(k, make([]byte, o.Size)); err != nil {
					return false
				}
				shadow[k] = int64(o.Size)
			}
		}
		var used int64
		for _, n := range shadow {
			used += n
		}
		free := capBytes - used
		return errors.Is(s.Put("probe", make([]byte, free+1)), ErrCapacity) &&
			s.Put("probe", make([]byte, free)) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-bounded store never holds more than capacity.
func TestMemStoreCapacityInvariantProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		const capBytes = 200
		s := NewMemStore(capBytes)
		for i, n := range sizes {
			_ = s.Put(fmt.Sprintf("k%d", i), make([]byte, n)) // errors allowed
			keys, _ := s.List("")
			held := 0
			for _, k := range keys {
				v, _ := s.Get(k)
				held += len(v)
			}
			if held > capBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
