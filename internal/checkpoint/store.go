package checkpoint

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"time"

	"gpunion/internal/storage"
)

// Path is a provider agent's way to the checkpoint store: it persists
// the checkpoints the agent captures, prunes the generations a new full
// snapshot obsoletes, and at launch resolves the chain a job resumes
// from and fetches it. A *Store is the path of an agent that reads the
// store in place. Keeping it an interface is the data-plane seam: the
// simulations put their LAN model and their data-plane partitions under
// it, exactly where the network would act.
type Path interface {
	// Save persists one checkpoint's metadata.
	Save(ck Checkpoint) error
	// Prune drops checkpoints no restore needs, returning bytes freed.
	Prune(jobID string) (int64, error)
	// RestoreChain resolves the job's newest verifiable chain, oldest
	// first (see Store.RestoreChain).
	RestoreChain(jobID string) ([]Checkpoint, error)
	// Fetch brings a resolved chain to the agent and reports how long
	// its bytes take to arrive.
	Fetch(chain []Checkpoint) time.Duration
}

// Store persists checkpoint metadata in a storage.Store and answers the
// restore-chain questions a relaunch needs: what is the latest
// restorable checkpoint for a job, and how many bytes must move to
// restore it (last full snapshot plus every subsequent increment).
//
// Every blob is framed with a CRC over its payload. Loads verify the
// frame, so bit rot or truncation in the backing store surfaces as
// ErrCorrupt instead of silently restoring damaged state — and the
// chain queries (Latest, RestoreChain, RestoreBytes) fall back to the
// newest older generation whose full chain still verifies. A corrupt
// newest checkpoint costs the work since the previous one, never the
// job.
type Store struct {
	mu      sync.Mutex
	backing storage.Store
	// latest caches the head sequence of the last known-good chain per
	// job (a hint; chain queries re-verify it on every use).
	latest map[string]int
	// corruptions counts frames that failed verification.
	corruptions int
	// fallbacks counts restore-chain heads that had to be skipped for an
	// older generation because their chain failed to verify.
	fallbacks int
}

var _ Path = (*Store)(nil)

// NewStore wraps a backing blob store.
func NewStore(backing storage.Store) *Store {
	return &Store{backing: backing, latest: make(map[string]int)}
}

func ckptKey(jobID string, seq int) string {
	return fmt.Sprintf("ckpt/%s/%08d", jobID, seq)
}

// ckptCRC is the frame checksum (Castagnoli, same table as the WAL).
var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// frame is the stored envelope: a CRC over the checkpoint's canonical
// JSON encoding. Any single-bit flip in the payload (or the CRC field
// itself) fails verification; truncation fails the JSON decode.
type frame struct {
	CRC     uint32          `json:"crc"`
	Payload json.RawMessage `json:"payload"`
}

// Save persists the checkpoint's metadata under a CRC frame.
func (s *Store) Save(ck Checkpoint) error {
	payload, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	raw, err := json.Marshal(frame{CRC: crc32.Checksum(payload, ckptCRC), Payload: payload})
	if err != nil {
		return fmt.Errorf("checkpoint: framing: %w", err)
	}
	if err := s.backing.Put(ckptKey(ck.JobID, ck.Seq), raw); err != nil {
		return fmt.Errorf("checkpoint: persisting %s/%d: %w", ck.JobID, ck.Seq, err)
	}
	s.mu.Lock()
	if ck.Seq > s.latest[ck.JobID] {
		s.latest[ck.JobID] = ck.Seq
	}
	s.mu.Unlock()
	return nil
}

// Load fetches one checkpoint by job and sequence number, verifying its
// frame. A blob that fails verification returns ErrCorrupt.
func (s *Store) Load(jobID string, seq int) (Checkpoint, error) {
	raw, err := s.backing.Get(ckptKey(jobID, seq))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %s/%d (%v)", ErrNoCheckpoint, jobID, seq, err)
	}
	var f frame
	if err := json.Unmarshal(raw, &f); err != nil || len(f.Payload) == 0 {
		return Checkpoint{}, s.corrupt(jobID, seq, "unreadable frame")
	}
	if crc32.Checksum(f.Payload, ckptCRC) != f.CRC {
		return Checkpoint{}, s.corrupt(jobID, seq, "checksum mismatch")
	}
	var ck Checkpoint
	if err := json.Unmarshal(f.Payload, &ck); err != nil {
		return Checkpoint{}, s.corrupt(jobID, seq, "unreadable payload")
	}
	return ck, nil
}

// corrupt counts one detection and builds the error.
func (s *Store) corrupt(jobID string, seq int, reason string) error {
	s.mu.Lock()
	s.corruptions++
	s.mu.Unlock()
	return fmt.Errorf("%w: %s/%d: %s", ErrCorrupt, jobID, seq, reason)
}

// CorruptionsDetected reports how many frames failed verification over
// the store's lifetime (chaos scenarios assert the detector really ran).
func (s *Store) CorruptionsDetected() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corruptions
}

// FallbacksUsed reports how many restore-chain queries had to fall back
// past a damaged newest generation to an older restorable one.
func (s *Store) FallbacksUsed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fallbacks
}

// Latest returns the most recent restorable checkpoint for the job: the
// head of the newest generation whose full restore chain verifies.
func (s *Store) Latest(jobID string) (Checkpoint, error) {
	chain, err := s.RestoreChain(jobID)
	if err != nil {
		return Checkpoint{}, err
	}
	return chain[len(chain)-1], nil
}

// Sequences lists the stored sequence numbers for a job, ascending.
func (s *Store) Sequences(jobID string) ([]int, error) {
	keys, err := s.backing.List(fmt.Sprintf("ckpt/%s/", jobID))
	if err != nil {
		return nil, err
	}
	seqs := make([]int, 0, len(keys))
	for _, k := range keys {
		var seq int
		if _, err := fmt.Sscanf(k[len(fmt.Sprintf("ckpt/%s/", jobID)):], "%d", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// RestoreChain returns the checkpoints that must be fetched to restore
// the job's newest restorable state: a full checkpoint followed by every
// later increment, in application order. The total of their Bytes fields
// is the migration transfer size.
//
// Heads are tried newest-first; a head whose chain contains a corrupt or
// missing link is skipped — the previous generation restores instead,
// costing at most the work since it. ErrNoCheckpoint means the job has
// no checkpoints at all; ErrBadChain means checkpoints exist but none
// anchors a fully-verifiable chain (the job restarts from scratch).
func (s *Store) RestoreChain(jobID string) ([]Checkpoint, error) {
	s.mu.Lock()
	hint := s.latest[jobID]
	s.mu.Unlock()
	if hint > 0 {
		if chain, ok := s.chainAt(jobID, hint); ok {
			return chain, nil
		}
	}
	seqs, err := s.Sequences(jobID)
	if err != nil || len(seqs) == 0 {
		return nil, fmt.Errorf("%w: job %s", ErrNoCheckpoint, jobID)
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if chain, ok := s.chainAt(jobID, seqs[i]); ok {
			if i < len(seqs)-1 {
				// A newer head existed but could not anchor a verifiable
				// chain: this restore fell back a generation.
				s.mu.Lock()
				s.fallbacks++
				s.mu.Unlock()
			}
			// Re-anchor the hint on the verified head: later queries go
			// straight to this chain instead of re-scanning (and
			// re-counting) the corrupt newer blobs on every call — but
			// only if no concurrent Save advanced the hint past the
			// snapshot this scan was built from; a fresh checkpoint must
			// never be shadowed by a stale fallback.
			s.mu.Lock()
			if s.latest[jobID] == hint {
				s.latest[jobID] = seqs[i]
			}
			s.mu.Unlock()
			return chain, nil
		}
	}
	return nil, fmt.Errorf("%w: job %s has %d checkpoints but none restorable",
		ErrBadChain, jobID, len(seqs))
}

// chainAt builds and verifies the restore chain headed at seq, oldest
// (the full snapshot) first. ok is false when any link is corrupt,
// missing, or structurally wrong.
func (s *Store) chainAt(jobID string, seq int) (chain []Checkpoint, ok bool) {
	cur, err := s.Load(jobID, seq)
	if err != nil {
		return nil, false
	}
	chain = []Checkpoint{cur}
	for cur.Incremental {
		if cur.BaseSeq >= cur.Seq {
			return nil, false // a cycle would loop forever; treat as damage
		}
		base, err := s.Load(jobID, cur.BaseSeq)
		if err != nil {
			return nil, false
		}
		chain = append(chain, base)
		cur = base
	}
	// Reverse: oldest (the full snapshot) first.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, true
}

// Fetch reports how long a resolved chain takes to reach the agent:
// nothing, for a store the agent reads in place.
func (s *Store) Fetch([]Checkpoint) time.Duration { return 0 }

// Prune deletes checkpoints older than the newest full snapshot, which
// are no longer needed for any restore. It returns the bytes reclaimed.
func (s *Store) Prune(jobID string) (int64, error) {
	chain, err := s.RestoreChain(jobID)
	if err != nil {
		return 0, err
	}
	needed := make(map[int]bool, len(chain))
	for _, ck := range chain {
		needed[ck.Seq] = true
	}
	seqs, err := s.Sequences(jobID)
	if err != nil {
		return 0, err
	}
	var reclaimed int64
	for _, seq := range seqs {
		if needed[seq] {
			continue
		}
		ck, err := s.Load(jobID, seq)
		if err == nil {
			reclaimed += ck.Bytes
		}
		if err := s.backing.Delete(ckptKey(jobID, seq)); err != nil {
			return reclaimed, err
		}
	}
	return reclaimed, nil
}
