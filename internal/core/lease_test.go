package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

// --- Lease arbiter ---

// eachLeaseStore runs fn once per LeaseStore implementation: the
// protocol is Lease's, so both must pass the same table.
func eachLeaseStore(t *testing.T, fn func(t *testing.T, store LeaseStore)) {
	t.Run("mem", func(t *testing.T) { fn(t, NewMemLeaseStore()) })
	t.Run("file", func(t *testing.T) {
		fn(t, FileLeaseStore(filepath.Join(t.TempDir(), "lease.json")))
	})
}

func TestLeaseSingleHolderAndEpochMonotonic(t *testing.T) {
	eachLeaseStore(t, func(t *testing.T, store LeaseStore) {
		clock := simclock.NewSim(t0)
		l := NewLease(store, clock, 10*time.Second, 2*time.Second)

		e1, _, err := l.Acquire("a")
		if err != nil || e1 != 1 {
			t.Fatalf("first acquire: epoch=%d err=%v", e1, err)
		}
		if _, _, err := l.Acquire("b"); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("contender acquired a held lease: %v", err)
		}
		// Re-acquire by the same holder is allowed but burns a new epoch.
		e2, _, err := l.Acquire("a")
		if err != nil || e2 != e1+1 {
			t.Fatalf("re-acquire: epoch=%d err=%v", e2, err)
		}
		if holder, epoch := l.Leader(); holder != "a" || epoch != e2 {
			t.Fatalf("leader = %q at %d, want a at %d", holder, epoch, e2)
		}
	})
}

func TestLeaseRegrantWaitsForSkewTolerance(t *testing.T) {
	eachLeaseStore(t, func(t *testing.T, store LeaseStore) {
		clock := simclock.NewSim(t0)
		l := NewLease(store, clock, 10*time.Second, 2*time.Second)
		if _, _, err := l.Acquire("a"); err != nil {
			t.Fatal(err)
		}
		// Expired but inside the skew grace: still held.
		clock.Advance(11 * time.Second)
		if _, _, err := l.Acquire("b"); !errors.Is(err, ErrLeaseHeld) {
			t.Fatalf("regrant inside skew tolerance: %v", err)
		}
		if holder, _ := l.Leader(); holder != "" {
			t.Fatalf("expired lease still names %q as leader", holder)
		}
		clock.Advance(1 * time.Second) // now at expiry + skewTolerance
		e, _, err := l.Acquire("b")
		if err != nil || e != 2 {
			t.Fatalf("regrant after grace: epoch=%d err=%v", e, err)
		}
		// The old holder's renew must now fail — its term is over.
		if _, err := l.Renew("a", 1); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("stale holder renewed: %v", err)
		}
	})
}

func TestLeaseRenewExtendsAndLapsedRenewFails(t *testing.T) {
	eachLeaseStore(t, func(t *testing.T, store LeaseStore) {
		clock := simclock.NewSim(t0)
		l := NewLease(store, clock, 10*time.Second, 2*time.Second)
		e, _, err := l.Acquire("a")
		if err != nil {
			t.Fatal(err)
		}
		clock.Advance(5 * time.Second)
		until, err := l.Renew("a", e)
		if err != nil || !until.Equal(clock.Now().Add(10*time.Second)) {
			t.Fatalf("renew: until=%v err=%v", until, err)
		}
		// Let it fully lapse (past expiry + skew tolerance): renewal must
		// not silently resume the old term.
		clock.Advance(13 * time.Second)
		if _, err := l.Renew("a", e); !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("lapsed renew succeeded: %v", err)
		}
	})
}

// TestLeaseTwoArbitersOneFile is the daemon's topology: every replica
// process runs its own Lease over the shared file. Hammered from two
// goroutines, no epoch may ever be granted twice, and a replica whose
// grant is live must never see the other one granted.
func TestLeaseTwoArbitersOneFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	clock := simclock.NewSim(t0)
	var (
		mu     sync.Mutex
		grants = map[uint64]string{}
		wg     sync.WaitGroup
	)
	for _, holder := range []string{"coord-a", "coord-b"} {
		l := NewLease(FileLeaseStore(path), clock, 10*time.Second, 2*time.Second)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				epoch, _, err := l.Acquire(holder)
				if errors.Is(err, ErrLeaseHeld) {
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", holder, err)
					return
				}
				mu.Lock()
				if prev, dup := grants[epoch]; dup {
					t.Errorf("epoch %d granted to %s and again to %s", epoch, prev, holder)
				}
				grants[epoch] = holder
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// The clock never moved, so whoever won the first grant held the
	// lease throughout: every epoch belongs to that one holder.
	first := grants[1]
	if first == "" || len(grants) != 50 {
		t.Fatalf("grants = %d, epoch 1 to %q; want one holder's 50 re-acquisitions", len(grants), first)
	}
	for epoch, holder := range grants {
		if holder != first {
			t.Errorf("epoch %d went to %s while %s held a live lease", epoch, holder, first)
		}
	}
}

// TestLeaseCorruptFileReadsFreeEpochStillIncreases: a torn or garbage
// record must read as a free lease (availability), and the arbiter that
// saw the old epoch must still grant a strictly higher one (fencing).
func TestLeaseCorruptFileReadsFreeEpochStillIncreases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lease.json")
	clock := simclock.NewSim(t0)
	l := NewLease(FileLeaseStore(path), clock, 10*time.Second, 2*time.Second)
	for want := uint64(1); want <= 3; want++ {
		if e, _, err := l.Acquire("a"); err != nil || e != want {
			t.Fatalf("acquire %d: epoch=%d err=%v", want, e, err)
		}
	}
	if err := os.WriteFile(path, []byte(`{"holder":"a","epo`), 0o644); err != nil {
		t.Fatal(err)
	}
	if holder, epoch := l.Leader(); holder != "" || epoch != 0 {
		t.Fatalf("corrupt record read as %q at epoch %d, want a free lease", holder, epoch)
	}
	e, _, err := l.Acquire("b")
	if err != nil || e != 4 {
		t.Fatalf("grant over a corrupt record: epoch=%d err=%v, want 4", e, err)
	}
	if holder, epoch := l.Leader(); holder != "b" || epoch != 4 {
		t.Fatalf("after the regrant the file names %q at %d", holder, epoch)
	}
}

// --- Coordinator in lease mode ---

// leaseRig is a coordinator in replicated mode against an in-process
// arbiter sharing its clock.
type leaseRig struct {
	clock *simclock.Sim
	lease *Lease
	coord *Coordinator
	bus   *eventbus.Bus
}

func newLeaseRig(t *testing.T, replica string) *leaseRig {
	t.Helper()
	clock := simclock.NewSim(t0)
	lease := NewLease(NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second)
	bus := eventbus.New(256)
	coord, err := New(Config{
		HeartbeatInterval: 10 * time.Second,
		Lease:             lease,
		ReplicaID:         replica,
	}, clock, db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), bus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return &leaseRig{clock: clock, lease: lease, coord: coord, bus: bus}
}

func (r *leaseRig) register(t *testing.T, id string) {
	t.Helper()
	if _, err := r.coord.Register(api.RegisterRequest{
		MachineID: id, Addr: "fake://" + id,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0")); err != nil {
		t.Fatal(err)
	}
}

func TestStandbyRejectsMutationsWithLeaderHint(t *testing.T) {
	r := newLeaseRig(t, "coord-b")
	// Another replica holds the lease; this one never led.
	if _, _, err := r.lease.Acquire("coord-a"); err != nil {
		t.Fatal(err)
	}
	_, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
	})
	var nl api.ErrNotLeader
	if !errors.As(err, &nl) {
		t.Fatalf("standby accepted a submit: %v", err)
	}
	if nl.LeaderHint != "coord-a" || nl.Epoch != 1 {
		t.Fatalf("redirect hint = %+v", nl)
	}
	// Reads stay available on standbys.
	if got := r.coord.Jobs(); len(got) != 0 {
		t.Fatalf("jobs on standby = %v", got)
	}
}

func TestTryLeadAdmitsMutationsAndStampsEpoch(t *testing.T) {
	r := newLeaseRig(t, "coord-a")
	if !r.coord.TryLead() {
		t.Fatal("TryLead failed on a free lease")
	}
	if !r.coord.Leading() || r.coord.Epoch() != 1 {
		t.Fatalf("leading=%v epoch=%d", r.coord.Leading(), r.coord.Epoch())
	}
	resp, err := r.coord.Register(api.RegisterRequest{
		MachineID: "n1", Addr: "fake://n1",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.LeaderEpoch != 1 || resp.ProtocolVersion != api.ProtocolV1 {
		t.Fatalf("register response not stamped: %+v", resp)
	}
	if _, err := r.coord.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderRenewsAcrossExpiry(t *testing.T) {
	r := newLeaseRig(t, "coord-a")
	if !r.coord.TryLead() {
		t.Fatal("TryLead failed")
	}
	// Well past the original 30 s grant: the renewal loop must have
	// kept the lease alive on the shared clock.
	r.clock.Advance(5 * time.Minute)
	if !r.coord.Leading() {
		t.Fatal("leader lapsed despite reachable arbiter")
	}
	holder, _ := r.lease.Leader()
	if holder != "coord-a" {
		t.Fatalf("arbiter holder = %q", holder)
	}
}

// cutLease simulates a partition between a replica and the arbiter:
// every call fails with a transport error.
type cutLease struct {
	inner LeaseClient
	cut   bool
}

func (c *cutLease) Acquire(h string) (uint64, time.Time, error) {
	if c.cut {
		return 0, time.Time{}, errors.New("cut: arbiter unreachable")
	}
	return c.inner.Acquire(h)
}

func (c *cutLease) Renew(h string, e uint64) (time.Time, error) {
	if c.cut {
		return time.Time{}, errors.New("cut: arbiter unreachable")
	}
	return c.inner.Renew(h, e)
}

func (c *cutLease) Leader() (string, uint64) {
	if c.cut {
		return "", 0
	}
	return c.inner.Leader()
}

func TestPartitionedLeaderSelfFencesBeforeSuccessor(t *testing.T) {
	clock := simclock.NewSim(t0)
	arbiter := NewLease(NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second)
	cut := &cutLease{inner: arbiter}
	bus := eventbus.New(256)
	coord, err := New(Config{
		HeartbeatInterval: 10 * time.Second, Lease: cut, ReplicaID: "coord-a",
	}, clock, db.New(0), checkpoint.NewStore(storage.NewMemStore(0)), bus)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	if !coord.TryLead() {
		t.Fatal("TryLead failed")
	}
	cut.cut = true
	// Advance to just before the cached grant expires: still leading
	// (transport failures alone do not demote).
	clock.Advance(29 * time.Second)
	if !coord.Leading() {
		t.Fatal("leader dropped before its cached grant expired")
	}
	// Past the grant: the replica self-fences — and only after the
	// extra skew tolerance can a standby take over. No epoch overlap.
	clock.Advance(2 * time.Second)
	if coord.Leading() {
		t.Fatal("zombie kept leading past its cached grant")
	}
	if _, _, err := arbiter.Acquire("coord-b"); !errors.Is(err, ErrLeaseHeld) {
		t.Fatalf("successor elected inside skew grace: %v", err)
	}
	clock.Advance(5 * time.Second)
	e, _, err := arbiter.Acquire("coord-b")
	if err != nil || e != 2 {
		t.Fatalf("successor after grace: epoch=%d err=%v", e, err)
	}
}

func TestHigherEpochRequestDeposesStaleLeader(t *testing.T) {
	r := newLeaseRig(t, "coord-a")
	if !r.coord.TryLead() {
		t.Fatal("TryLead failed")
	}
	// A request stamped with a future epoch proves a newer leader
	// exists: the replica must step down before answering.
	_, err := r.coord.SubmitJob(api.SubmitJobRequest{
		Envelope: api.Envelope{LeaderEpoch: 7},
		User:     "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192,
	})
	var nl api.ErrNotLeader
	if !errors.As(err, &nl) {
		t.Fatalf("stale leader served a higher-epoch request: %v", err)
	}
	if r.coord.Leading() {
		t.Fatal("replica still leading after seeing a higher epoch")
	}
	deposed := 0
	for _, ev := range r.bus.History() {
		if ev.Type == eventbus.LeaderDeposed {
			deposed++
		}
	}
	if deposed != 1 {
		t.Fatalf("deposed events = %d", deposed)
	}
}

func TestRegisterNegotiatesProtocolVersion(t *testing.T) {
	r := newLeaseRig(t, "coord-a")
	if !r.coord.TryLead() {
		t.Fatal("TryLead failed")
	}
	// Legacy client (no version field) negotiates down to v1.
	resp, err := r.coord.Register(api.RegisterRequest{
		MachineID: "n1", Addr: "fake://n1",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0"))
	if err != nil || resp.ProtocolVersion != api.ProtocolV1 {
		t.Fatalf("legacy negotiation: v=%d err=%v", resp.ProtocolVersion, err)
	}
	// Current client gets the current version.
	resp, err = r.coord.Register(api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: "n2", Addr: "fake://n2",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0"))
	if err != nil || resp.ProtocolVersion != api.ProtocolVersion {
		t.Fatalf("current negotiation: v=%d err=%v", resp.ProtocolVersion, err)
	}
	// A future version the coordinator does not speak is refused.
	_, err = r.coord.Register(api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion + 1},
		MachineID: "n3", Addr: "fake://n3",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090",
			MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}, newFakeAgent("gpu0"))
	var vm api.ErrVersionMismatch
	if !errors.As(err, &vm) {
		t.Fatalf("future version admitted: %v", err)
	}
}
