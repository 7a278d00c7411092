package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/simclock"
)

// ErrLeaseHeld is returned by Acquire while another replica's lease is
// still live (including its skew-tolerance grace).
var ErrLeaseHeld = errors.New("core: lease held by another replica")

// ErrLeaseLost is returned by Renew when the caller no longer holds the
// lease — its epoch was superseded or its grant expired and went to
// someone else. The caller must step down immediately.
var ErrLeaseLost = errors.New("core: lease lost")

// LeaseClient is what a coordinator uses to acquire and keep
// leadership. The one implementation of the protocol is *Lease (an
// arbiter standing in for an external consensus service); the chaos
// harness wraps it to inject partitions between a leader and the
// arbiter.
type LeaseClient interface {
	// Acquire attempts to take the lease for holder. On success it
	// returns a fresh, strictly increasing epoch and the expiry time
	// (on the arbiter's clock).
	Acquire(holder string) (epoch uint64, until time.Time, err error)
	// Renew extends the lease the caller holds at the given epoch.
	Renew(holder string, epoch uint64) (until time.Time, err error)
	// Leader reports the current holder and epoch (best effort; holder
	// is empty when the lease is free or expired).
	Leader() (holder string, epoch uint64)
}

// LeaseRecord is the arbiter's entire state: who holds the lease, under
// which epoch, and until when. The zero record is a free lease that has
// never been granted.
type LeaseRecord struct {
	Holder  string    `json:"holder"`
	Epoch   uint64    `json:"epoch"`
	Expires time.Time `json:"expires"`
}

// LeaseStore holds the arbiter's one record. The protocol lives in
// Lease; a store only supplies mutual exclusion and persistence: in
// memory for the simulations (NewMemLeaseStore), a file on storage
// every replica can reach for the daemon (FileLeaseStore).
type LeaseStore interface {
	// Load returns the current record; a missing or unreadable one
	// reads as the zero record.
	Load() LeaseRecord
	// Update runs fn on the current record under the store's mutual
	// exclusion and persists whatever fn leaves in it, unless fn errors.
	Update(fn func(rec *LeaseRecord) error) error
}

type memLeaseStore struct {
	mu  sync.Mutex
	rec LeaseRecord
}

// NewMemLeaseStore returns an in-process LeaseStore.
func NewMemLeaseStore() LeaseStore { return &memLeaseStore{} }

func (s *memLeaseStore) Load() LeaseRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

func (s *memLeaseStore) Update(fn func(rec *LeaseRecord) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.rec
	if err := fn(&rec); err != nil {
		return err
	}
	s.rec = rec
	return nil
}

// Lease is a single-key lease arbiter with monotonically increasing
// epochs — the fencing-token generator of the replication design. It
// stands in for the external coordination service (etcd, a consensus
// group) a production deployment would use; the protocol it enforces is
// the real one:
//
//   - at most one holder at a time, per epoch;
//   - the epoch increases on every grant, never repeats;
//   - an expired lease is only re-granted after an extra SkewTolerance
//     has passed, so a holder whose clock runs behind the arbiter's by
//     at most that much observes its own expiry (and self-fences)
//     before a successor can exist.
//
// The second rule bounds unavailability instead of risking split brain:
// after a leader dies, writes are rejected everywhere for at most
// TTL + SkewTolerance before a standby can take over.
//
// Several Lease values over one shared store (one per daemon process
// over a FileLeaseStore) are one arbiter: every decision is taken
// inside the store's Update.
type Lease struct {
	store LeaseStore
	clock simclock.Clock
	// TTL is how long one grant or renewal lasts.
	ttl time.Duration
	// skewTolerance is the extra wait after expiry before re-granting.
	skewTolerance time.Duration
	// seen is the highest epoch this arbiter has read or granted. A
	// record that lost its epoch (a corrupt file reads as the zero
	// record) is floored to it, so no replica is ever granted an epoch
	// at or below one it already served under.
	seen atomic.Uint64
}

// NewLease creates an arbiter over store on the given (authoritative)
// clock.
func NewLease(store LeaseStore, clock simclock.Clock, ttl, skewTolerance time.Duration) *Lease {
	return &Lease{store: store, clock: clock, ttl: ttl, skewTolerance: skewTolerance}
}

// observe raises the seen-epoch floor.
func (l *Lease) observe(epoch uint64) {
	for {
		cur := l.seen.Load()
		if epoch <= cur || l.seen.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// Acquire implements LeaseClient.
func (l *Lease) Acquire(holder string) (epoch uint64, until time.Time, err error) {
	err = l.store.Update(func(rec *LeaseRecord) error {
		now := l.clock.Now()
		if rec.Holder != "" && rec.Holder != holder && now.Before(rec.Expires.Add(l.skewTolerance)) {
			return fmt.Errorf("%w: %s until %s", ErrLeaseHeld, rec.Holder, rec.Expires)
		}
		if floor := l.seen.Load(); rec.Epoch < floor {
			rec.Epoch = floor
		}
		rec.Epoch++
		rec.Holder = holder
		rec.Expires = now.Add(l.ttl)
		epoch, until = rec.Epoch, rec.Expires
		return nil
	})
	l.observe(epoch)
	return epoch, until, err
}

// Renew implements LeaseClient.
func (l *Lease) Renew(holder string, epoch uint64) (until time.Time, err error) {
	err = l.store.Update(func(rec *LeaseRecord) error {
		if rec.Holder != holder || rec.Epoch != epoch {
			return ErrLeaseLost
		}
		now := l.clock.Now()
		if !now.Before(rec.Expires.Add(l.skewTolerance)) {
			// Fully lapsed: the holder must re-Acquire (and get a new epoch)
			// rather than silently resume an expired term.
			return ErrLeaseLost
		}
		rec.Expires = now.Add(l.ttl)
		until = rec.Expires
		return nil
	})
	return until, err
}

// Leader implements LeaseClient.
func (l *Lease) Leader() (string, uint64) {
	rec := l.store.Load()
	l.observe(rec.Epoch)
	if rec.Holder == "" || !l.clock.Now().Before(rec.Expires) {
		return "", rec.Epoch
	}
	return rec.Holder, rec.Epoch
}
