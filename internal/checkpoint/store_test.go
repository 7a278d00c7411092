package checkpoint

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/gpu"
	"gpunion/internal/storage"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	return NewStore(storage.NewMemStore(0))
}

// makeChain saves a full checkpoint followed by n increments for jobID
// and returns the per-checkpoint byte sizes.
func makeChain(t *testing.T, s *Store, jobID string, n int) []int64 {
	t.Helper()
	img := NewMemoryImage(1000, 4096)
	src := Source{JobID: jobID, Image: img, Env: Env{GPUArch: gpu.Ampere}}
	var sizes []int64
	for seq := 1; seq <= n+1; seq++ {
		if seq > 1 {
			img.TouchFraction(0.05 * float64(seq))
		}
		src.Progress = Progress{Step: int64(seq * 100)}
		ck, err := ALC{}.Capture(src, seq, seq > 1, now.Add(time.Duration(seq)*time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Save(ck); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ck.Bytes)
	}
	return sizes
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := newTestStore(t)
	ck := Checkpoint{JobID: "j1", Seq: 1, Bytes: 1234, Mechanism: "alc",
		Progress: Progress{Step: 7}, CreatedAt: now}
	if err := s.Save(ck); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("j1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bytes != 1234 || got.Progress.Step != 7 || !got.CreatedAt.Equal(now) {
		t.Fatalf("loaded = %+v", got)
	}
}

func TestStoreLoadMissing(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Load("j1", 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreLatest(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 3)
	latest, err := s.Latest("j1")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 4 || latest.Progress.Step != 400 {
		t.Fatalf("latest = %+v", latest)
	}
}

func TestStoreLatestMissingJob(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Latest("ghost"); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}

func TestStoreLatestRehydratesFromBacking(t *testing.T) {
	backing := storage.NewMemStore(0)
	s1 := NewStore(backing)
	makeChain(t, s1, "j1", 2)
	// A fresh Store over the same backing must find the data via List.
	s2 := NewStore(backing)
	latest, err := s2.Latest("j1")
	if err != nil || latest.Seq != 3 {
		t.Fatalf("rehydrated latest = %+v, %v", latest, err)
	}
}

func TestStoreSequencesAscending(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 2)
	seqs, err := s.Sequences("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[2] != 3 {
		t.Fatalf("Sequences = %v", seqs)
	}
}

func TestRestoreChainOrderAndBytes(t *testing.T) {
	s := newTestStore(t)
	sizes := makeChain(t, s, "j1", 3)
	chain, err := s.RestoreChain("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 {
		t.Fatalf("chain length = %d, want 4", len(chain))
	}
	if chain[0].Incremental {
		t.Fatal("chain must start with the full snapshot")
	}
	for i := 1; i < len(chain); i++ {
		if !chain[i].Incremental || chain[i].Seq != chain[i-1].Seq+1 {
			t.Fatalf("chain[%d] = %+v", i, chain[i])
		}
	}
	var total, want int64
	for _, ck := range chain {
		total += ck.Bytes
	}
	for _, b := range sizes {
		want += b
	}
	if total != want {
		t.Fatalf("chain bytes = %d, want %d", total, want)
	}
}

func TestRestoreChainSingleFull(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 0)
	chain, err := s.RestoreChain("j1")
	if err != nil || len(chain) != 1 || chain[0].Incremental {
		t.Fatalf("chain = %+v, %v", chain, err)
	}
}

func TestRestoreChainBrokenBase(t *testing.T) {
	s := newTestStore(t)
	// An incremental checkpoint whose base was never saved.
	ck := Checkpoint{JobID: "j1", Seq: 5, Incremental: true, BaseSeq: 4,
		Bytes: 10, Mechanism: "alc", CreatedAt: now}
	if err := s.Save(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreChain("j1"); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v, want ErrBadChain", err)
	}
}

func TestNewFullCheckpointResetsChain(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 2) // seqs 1..3
	// A new full snapshot at seq 4.
	full := Checkpoint{JobID: "j1", Seq: 4, Bytes: 999, Mechanism: "alc",
		Progress: Progress{Step: 999}, CreatedAt: now}
	if err := s.Save(full); err != nil {
		t.Fatal(err)
	}
	chain, err := s.RestoreChain("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Seq != 4 {
		t.Fatalf("chain after new full = %+v", chain)
	}
}

func TestPruneRemovesObsolete(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 2) // 1(full),2,3
	full := Checkpoint{JobID: "j1", Seq: 4, Bytes: 999, Mechanism: "alc", CreatedAt: now}
	if err := s.Save(full); err != nil {
		t.Fatal(err)
	}
	reclaimed, err := s.Prune("j1")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed <= 0 {
		t.Fatalf("reclaimed = %d, want > 0", reclaimed)
	}
	seqs, _ := s.Sequences("j1")
	if len(seqs) != 1 || seqs[0] != 4 {
		t.Fatalf("sequences after prune = %v", seqs)
	}
	// The surviving chain still restores.
	if _, err := s.RestoreChain("j1"); err != nil {
		t.Fatal(err)
	}
}

func TestPruneKeepsLiveChain(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 3)
	reclaimed, err := s.Prune("j1")
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != 0 {
		t.Fatalf("reclaimed = %d from a fully-live chain", reclaimed)
	}
	seqs, _ := s.Sequences("j1")
	if len(seqs) != 4 {
		t.Fatalf("sequences = %v", seqs)
	}
}

func TestStoreJobsIsolated(t *testing.T) {
	s := newTestStore(t)
	makeChain(t, s, "j1", 1)
	makeChain(t, s, "j2", 3)
	c1, err := s.RestoreChain("j1")
	if err != nil || len(c1) != 2 {
		t.Fatalf("j1 chain = %v, %v", c1, err)
	}
	c2, err := s.RestoreChain("j2")
	if err != nil || len(c2) != 4 {
		t.Fatalf("j2 chain = %v, %v", c2, err)
	}
}

// corruptBlob flips one bit of the stored frame for jobID/seq.
func corruptBlob(t *testing.T, backing storage.Store, jobID string, seq int) {
	t.Helper()
	key := ckptKey(jobID, seq)
	raw, err := backing.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x04
	if err := backing.Put(key, bad); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDetectsBitFlip(t *testing.T) {
	backing := storage.NewMemStore(0)
	s := NewStore(backing)
	makeChain(t, s, "j1", 2)
	corruptBlob(t, backing, "j1", 2)
	if _, err := s.Load("j1", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if s.CorruptionsDetected() == 0 {
		t.Fatal("detection not counted")
	}
	// The undamaged links still load.
	if _, err := s.Load("j1", 1); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	backing := storage.NewMemStore(0)
	s := NewStore(backing)
	makeChain(t, s, "j1", 0)
	key := ckptKey("j1", 1)
	raw, _ := backing.Get(key)
	_ = backing.Put(key, raw[:len(raw)/2])
	if _, err := s.Load("j1", 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestLatestFallsBackPastCorruptHead: when the newest checkpoint is
// damaged, Latest restores the previous generation instead of failing
// or returning damaged state.
func TestLatestFallsBackPastCorruptHead(t *testing.T) {
	backing := storage.NewMemStore(0)
	s := NewStore(backing)
	makeChain(t, s, "j1", 3) // seqs 1..4
	corruptBlob(t, backing, "j1", 4)
	latest, err := s.Latest("j1")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 3 {
		t.Fatalf("Latest fell back to seq %d, want 3", latest.Seq)
	}
	// The fallback re-anchors the hint: repeated queries go straight to
	// the verified chain without re-reading (and re-counting) the
	// corrupt head.
	detections := s.CorruptionsDetected()
	for i := 0; i < 3; i++ {
		if _, err := s.Latest("j1"); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.CorruptionsDetected(); got != detections {
		t.Fatalf("repeated Latest re-counted corruption: %d -> %d", detections, got)
	}
}

// TestLatestFallsBackPastCorruptBase: an intact head whose chain runs
// through a damaged base is unusable; the fallback must keep walking to
// a generation whose whole chain verifies.
func TestLatestFallsBackPastCorruptBase(t *testing.T) {
	backing := storage.NewMemStore(0)
	s := NewStore(backing)
	makeChain(t, s, "j1", 3) // full@1 + increments 2,3,4
	corruptBlob(t, backing, "j1", 3)
	// Head 4 loads fine but chains through the damaged 3; head 3 is
	// damaged; head 2 chains to the intact full@1.
	latest, err := s.Latest("j1")
	if err != nil {
		t.Fatal(err)
	}
	if latest.Seq != 2 {
		t.Fatalf("Latest fell back to seq %d, want 2", latest.Seq)
	}
	chain, err := s.RestoreChain("j1")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Seq != 1 || chain[1].Seq != 2 {
		t.Fatalf("chain = %+v", chain)
	}
}

// TestRestoreChainAllCorrupt: when nothing restorable survives, the
// store says so (ErrBadChain) rather than handing out damage.
func TestRestoreChainAllCorrupt(t *testing.T) {
	backing := storage.NewMemStore(0)
	s := NewStore(backing)
	makeChain(t, s, "j1", 1)
	corruptBlob(t, backing, "j1", 1)
	corruptBlob(t, backing, "j1", 2)
	if _, err := s.RestoreChain("j1"); !errors.Is(err, ErrBadChain) {
		t.Fatalf("err = %v, want ErrBadChain", err)
	}
}
