// Package db is GPUnion's central system database (§3.2): it persists
// node registrations, resource allocations, job records and historical
// monitoring samples, "enabling both operational decision making and
// capacity planning".
//
// The store is in-memory. The job, allocation and sample tables each
// sit behind one sync.RWMutex. The node table alone is hash-sharded
// (DefaultShards ways, one lock each): TouchNodes frames a coalesced
// heartbeat flush as one MutBeat record per node shard, and the WAL,
// the replication stream and the golden chaos traces are all pinned to
// that framing. Node point operations touch exactly one shard; node
// scans take read locks shard by shard.
//
// Records are copy-on-write: mutators install a freshly cloned record
// and never modify an installed one, so read paths hand out shallow
// copies that safely share slice storage (GPUs, Entrypoint) with the
// store. Nothing outside this package may mutate a returned record's
// slices; change a record through UpdateNode / UpdateJob.
//
// The job table additionally maintains materialized indexes (see
// index.go): per-state queue-ordered lists and a node→jobs map, kept in
// the same critical sections as the record map, so the hot
// control-plane queries — JobsInState, JobsOnNode, CountJobsInState —
// cost O(result), not O(all jobs).
//
// Durability is layered on top through mutation records: every write
// to nodes, jobs and allocations emits a typed, LSN-stamped Mutation to
// an installed MutationHook (the write-ahead log in internal/wal),
// ExportState checkpoints the store one lock at a time without ever
// quiescing it, and Apply replays logged mutations idempotently during
// recovery. One-shot dumps are simply the JSON encoding of ExportState;
// the coordinator path persists via snapshot + WAL.
//
// Monitoring samples are soft state: a lossy in-memory ring that takes
// no LSN and is never logged or shipped. They ride ExportState, so a
// checkpoint keeps history across a clean restart; a crash loses the
// points since the last checkpoint and a promoted standby starts with
// the snapshot's history only.
package db

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/gpu"
	"gpunion/internal/workload"
)

// Errors returned by the database.
var (
	ErrNotFound = errors.New("db: record not found")
	ErrConflict = errors.New("db: conflicting record")
)

// NodeStatus is the lifecycle status of a provider node.
type NodeStatus string

// Node statuses. Volatility is first-class: Paused and Departed are
// normal states, not failures.
const (
	NodeActive      NodeStatus = "active"
	NodePaused      NodeStatus = "paused"      // provider paused new allocations
	NodeDeparted    NodeStatus = "departed"    // voluntarily left
	NodeUnreachable NodeStatus = "unreachable" // heartbeat loss (emergency departure)
)

// GPUInfo summarizes one device for scheduling; a store derives Allocated.
type GPUInfo struct {
	DeviceID        string `json:"device_id"`
	Model           string `json:"model"`
	Arch            string `json:"arch"`
	MemoryMiB       int64  `json:"memory_mib"`
	CapabilityMajor int    `json:"capability_major"`
	CapabilityMinor int    `json:"capability_minor"`
	Allocated       bool   `json:"allocated"`
}

// NodeRecord is a registered provider node.
type NodeRecord struct {
	ID      string     `json:"id"`
	Addr    string     `json:"addr"` // agent base URL
	Status  NodeStatus `json:"status"`
	GPUs    []GPUInfo  `json:"gpus"`
	Kernel  string     `json:"kernel"`
	Storage int64      `json:"storage_bytes"` // scratch capacity

	RegisteredAt  time.Time `json:"registered_at"`
	LastHeartbeat time.Time `json:"last_heartbeat"`

	// Reliability inputs for the scheduler's volatility prediction.
	Departures  int           `json:"departures"`
	TotalUptime time.Duration `json:"total_uptime"`
	// LastJoin is when the node most recently became active.
	LastJoin time.Time `json:"last_join"`
	// ReturnExpected marks a node that left on a temporary departure:
	// when it next comes back, the jobs it displaced migrate home.
	ReturnExpected bool `json:"return_expected,omitempty"`

	// Health is the folded gray-failure health score in (0, 1] — 1
	// fully healthy — and HealthAt the instant of the fold that
	// produced it. A zero HealthAt means no health events were ever
	// folded (read the score through HealthScore, which treats that as
	// healthy); both fields move only via RecordHealth / MutNodeHealth.
	Health   float64   `json:"health,omitempty"`
	HealthAt time.Time `json:"health_at,omitempty"`
}

// HealthScore reads the node's effective health: 1.0 until the first
// fold installs a score (old snapshots and fresh registrations decode
// with a zero HealthAt, which must not read as maximally unhealthy).
func (n *NodeRecord) HealthScore() float64 {
	if n.HealthAt.IsZero() {
		return 1
	}
	return n.Health
}

// JobState is the platform-level lifecycle of a job.
type JobState string

// Job states. A job being moved stays running on its source until the
// move's one write places it on its target. Logs written by older
// builds may hold records in the retired migrating state: the store
// keeps them unordered and on no node, and recovery requeues them.
const (
	JobPending   JobState = "pending"
	JobRunning   JobState = "running"
	JobCompleted JobState = "completed"
	JobFailed    JobState = "failed"
	JobKilled    JobState = "killed"
)

// JobRecord is a submitted job.
type JobRecord struct {
	ID   string `json:"id"`
	User string `json:"user"`
	// Kind is "batch" or "interactive".
	Kind  string   `json:"kind"`
	State JobState `json:"state"`
	// Priority orders the pending queue (higher first).
	Priority int `json:"priority"`

	// Requirements for placement.
	GPUMemMiB       int64 `json:"gpu_mem_mib"`
	CapabilityMajor int   `json:"capability_major"`
	CapabilityMinor int   `json:"capability_minor"`

	// Placement (when scheduled).
	NodeID      string `json:"node_id,omitempty"`
	DeviceID    string `json:"device_id,omitempty"`
	ContainerID string `json:"container_id,omitempty"`
	// PreferredNode remembers the original placement for migrate-back.
	PreferredNode string `json:"preferred_node,omitempty"`
	// StoragePrefs is the user's ordered checkpoint placement list.
	StoragePrefs []string `json:"storage_prefs,omitempty"`

	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	// PlacedAt is when the job's *current* placement committed (unlike
	// StartedAt, it moves on every migration). Heartbeat reconciliation
	// uses it to distinguish "the host lost this job" from "this job
	// was placed after the host built its report".
	PlacedAt   time.Time `json:"placed_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	Migrations int       `json:"migrations"`

	// Relaunch spec: everything the coordinator needs to (re)launch the
	// job. Persisting it with the record is what lets a recovered
	// coordinator reschedule pending and displaced jobs instead of
	// forcing users to resubmit.
	ImageName             string                 `json:"image_name,omitempty"`
	Entrypoint            []string               `json:"entrypoint,omitempty"`
	CheckpointIntervalSec int                    `json:"checkpoint_interval_sec,omitempty"`
	SessionSeconds        int                    `json:"session_seconds,omitempty"`
	Training              *workload.TrainingSpec `json:"training,omitempty"`
}

// AllocationRecord is one placement episode of a job on a device.
type AllocationRecord struct {
	JobID    string    `json:"job_id"`
	NodeID   string    `json:"node_id"`
	DeviceID string    `json:"device_id"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end,omitempty"`
}

// Sample is one historical monitoring data point.
type Sample struct {
	Time   time.Time `json:"time"`
	NodeID string    `json:"node_id"`
	Metric string    `json:"metric"`
	Value  float64   `json:"value"`
}

// Store is the system-database surface the control plane is written
// against. DB is its one implementation; it stays an interface so that
// a decorator can embed a Store and override single methods, as the
// end-to-end benchmark's span tracing and the chaos sabotage tests do.
type Store interface {
	UpsertNode(n NodeRecord)
	GetNode(id string) (NodeRecord, error)
	UpdateNode(id string, fn func(*NodeRecord)) error
	// TouchNodes advances LastHeartbeat on a batch of nodes — the
	// coalesced no-op-heartbeat commit path. Beats landing on the same
	// shard share one critical section and emit one compact MutBeat
	// record, so a steady-state fleet's write volume is proportional to
	// churn, not fleet size. Beats for missing nodes or with stale
	// timestamps are skipped; the applied count is returned.
	TouchNodes(beats []BeatDelta) int
	// RecordHealth folds a batch of gray-failure health events into one
	// node's health score. fold maps the node's previous (score,
	// instant) pair to the new score and runs inside the node's
	// critical section, so concurrent folds on one node serialize; the
	// committed record (MutNodeHealth) carries the resulting score as
	// an after-image plus the folded events, which is what lets the
	// health-score-consistent audit recompute it. Folds whose at does
	// not advance HealthAt are skipped (forward-only, like TouchNodes);
	// ok reports whether the fold was applied.
	RecordHealth(nodeID string, at time.Time, events []gpu.HealthEvent,
		fold func(prev float64, prevAt time.Time) float64) (score float64, ok bool)
	ListNodes() []NodeRecord
	// ActiveNodes returns the installed records of every NodeActive
	// node, in no particular order. The records are the store's own —
	// immutable by the copy-on-write rule — so nothing is copied; the
	// caller must not write through the pointers.
	ActiveNodes() []*NodeRecord
	// NodeGeneration counts node-record installs that scheduling can
	// see: registrations, updates, health folds, device flags a job
	// write moved, replayed records and state imports — not
	// heartbeat-only advances. A cache derived
	// from ActiveNodes is current while the generation it read *before*
	// its scan still equals this.
	NodeGeneration() uint64

	InsertJob(j JobRecord) error
	GetJob(id string) (JobRecord, error)
	UpdateJob(id string, fn func(*JobRecord)) error
	CountJobsInState(state JobState) int
	ListJobs() []JobRecord
	JobsInState(state JobState) []JobRecord
	JobsOnNode(nodeID string) []JobRecord

	RecordAllocation(a AllocationRecord)
	// CloseAllocation has no non-test caller; bench/trace.go's override
	// keeps it here until ROADMAP item 6(a) deletes that file.
	CloseAllocation(jobID string, end time.Time) error
	// CloseAllocationEpisode closes the open episode matching the full
	// placement identity. Callers racing a re-placement use it so a
	// duplicate close can never eat the job's fresh episode on another
	// device.
	CloseAllocationEpisode(jobID, nodeID, deviceID string, end time.Time) error
	Allocations() []AllocationRecord

	AppendSample(s Sample)
	// AppendSamples stores several points as soft state: in memory
	// only, never logged or shipped (see DB.AppendSamples).
	AppendSamples(points []Sample)
	SamplesInRange(metric, nodeID string, from, to time.Time) []Sample

	// Persistence. SetMutationHook observes every committed mutation
	// (the WAL append point); ExportState/ImportState checkpoint and
	// restore without a global quiesce; Apply replays logged mutations
	// idempotently; CurrentLSN reads the mutation sequence counter.
	// (The legacy stop-the-world Save/Load snapshot pair is gone:
	// serialize ExportState / deserialize into ImportState instead.)
	SetMutationHook(h MutationHook)
	// AddMutationObserver registers an additional read-only subscriber
	// for committed mutations (metrics, the chaos harness's stream
	// audits). Observers run after the durable hook, outside any table
	// lock, and must not mutate the payloads. The returned cancel
	// detaches the observer.
	AddMutationObserver(h MutationHook) (cancel func())
	CurrentLSN() uint64
	Apply(m Mutation) error
	ExportState() State
	ImportState(st State)
}

// Compile-time interface checks.
var _ Store = (*DB)(nil)

// DefaultShards is the shard count used by New. Sixteen is enough to
// spread a few hundred heartbeating nodes with negligible memory cost.
const DefaultShards = 16

// shardOf hashes a record key onto a shard index (shards is a power of
// two). It is FNV-1a, a pure function of the key: shard assignment
// decides how a coalescer flush splits into MutBeat records, so a
// per-process seed here would make every WAL, replication stream and
// chaos trace differ from one process to the next (make verify-golden
// pins them).
func shardOf(key string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h) & (shards - 1)
}

// nodeShard is one partition of the node table.
type nodeShard struct {
	mu   sync.RWMutex
	recs map[string]*NodeRecord
}

// jobTable is the job table. It maintains materialized indexes next to
// the record map — per-state counts, per-state queue-ordered lists, and
// a node→jobs placement map (see index.go) — all mutated only under mu.
type jobTable struct {
	mu         sync.RWMutex
	recs       map[string]*JobRecord
	stateCount map[JobState]int
	queue      map[JobState][]*JobRecord
	byNode     map[string]map[string]*JobRecord
}

// allocTable is the allocation history, in the order it was recorded.
type allocTable struct {
	mu       sync.RWMutex
	episodes []AllocationRecord
}

// sampleRing is the monitoring history: a ring of points in append
// order, the oldest at head. It is allocated whole, at the retention
// bound, by the first append (see AppendSamples), so it never grows.
type sampleRing struct {
	mu   sync.RWMutex
	ring []Sample
	head int // index of the oldest point
	n    int // points held
}

// points returns the ring's points oldest first, as its two runs.
func (r *sampleRing) points() (older, newer []Sample) {
	if r.head+r.n <= len(r.ring) {
		return r.ring[r.head : r.head+r.n], nil
	}
	return r.ring[r.head:], r.ring[:r.head+r.n-len(r.ring)]
}

// push appends s as the newest point; a full ring overwrites its oldest.
func (r *sampleRing) push(s Sample) {
	if r.n == len(r.ring) {
		r.ring[r.head] = s
		r.head = (r.head + 1) % len(r.ring)
		return
	}
	r.ring[(r.head+r.n)%len(r.ring)] = s
	r.n++
}

// DB is the central database. All methods are safe for concurrent use;
// operations on nodes that hash to different shards do not contend.
type DB struct {
	shardCount int
	nodes      []*nodeShard
	jobs       jobTable
	allocs     allocTable
	samples    sampleRing
	// maxSamples bounds the monitoring history: past it, every append
	// evicts the store's oldest point.
	maxSamples int
	// lsn stamps every logged mutation (samples take none), inside the
	// target table's critical section, so an ExportState watermark read
	// before a table is serialized bounds what that table's copy contains.
	lsn atomic.Uint64
	// nodeGen backs NodeGeneration. Every bump comes right after the
	// install it announces, inside the shard's critical section: a
	// reader that took the generation before scanning either sees the
	// new record or finds the generation moved on its next read. Bumped
	// first, a scan could file the old record under the new generation.
	nodeGen   atomic.Uint64
	hook      atomic.Pointer[MutationHook]
	observers observerList
}

// New creates a database with a sharded node table, retaining at most
// maxSamples monitoring points (0 means a generous default).
func New(maxSamples int) *DB {
	return NewWithShards(maxSamples, DefaultShards)
}

// NewWithShards creates a database with an explicit node-table shard
// count, rounded up to a power of two. One shard puts the node table
// behind a single RWMutex too.
func NewWithShards(maxSamples, shards int) *DB {
	if maxSamples <= 0 {
		maxSamples = 1 << 20
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	d := &DB{
		shardCount: pow,
		nodes:      make([]*nodeShard, pow),
		maxSamples: maxSamples,
	}
	for i := 0; i < pow; i++ {
		d.nodes[i] = &nodeShard{recs: make(map[string]*NodeRecord)}
	}
	d.jobs.reset()
	return d
}

func (d *DB) nodeShard(id string) *nodeShard { return d.nodes[shardOf(id, d.shardCount)] }

// --- Nodes ---

// UpsertNode inserts or replaces a node record (see putNode).
func (d *DB) UpsertNode(n NodeRecord) {
	rec, lsn := d.putNode(n, true)
	// The installed record is immutable from here on (copy-on-write),
	// so the emitted after-image can share it.
	d.emit(Mutation{LSN: lsn, Type: MutNodePut, Node: rec})
}

// putNode installs a clone of n with its device flags derived, whatever
// n says, and returns it with, for a logged write, its LSN.
func (d *DB) putNode(n NodeRecord, logged bool) (rec *NodeRecord, lsn uint64) {
	d.jobs.mu.RLock()
	defer d.jobs.mu.RUnlock()
	s := d.nodeShard(n.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := cloneNode(n)
	d.jobs.derive(&cp)
	s.recs[n.ID] = &cp
	d.nodeGen.Add(1)
	if logged {
		lsn = d.lsn.Add(1)
	}
	return &cp, lsn
}

// GetNode returns a copy of the node record.
func (d *DB) GetNode(id string) (NodeRecord, error) {
	s := d.nodeShard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.recs[id]
	if !ok {
		return NodeRecord{}, fmt.Errorf("%w: node %s", ErrNotFound, id)
	}
	return *n, nil
}

// UpdateNode applies fn to the node record under the shard lock. fn
// runs on a private clone (copy-on-write): the previously installed
// record — and every copy read paths handed out that shares its slice
// storage — is left untouched. fn leaves the device flags alone.
func (d *DB) UpdateNode(id string, fn func(*NodeRecord)) error {
	s := d.nodeShard(id)
	s.mu.Lock()
	n, ok := s.recs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: node %s", ErrNotFound, id)
	}
	cp := cloneNode(*n)
	fn(&cp)
	s.recs[id] = &cp
	d.nodeGen.Add(1)
	lsn := d.lsn.Add(1)
	s.mu.Unlock()
	d.emit(Mutation{LSN: lsn, Type: MutNodePut, Node: &cp})
	return nil
}

// TouchNodes advances LastHeartbeat on a batch of nodes. Deltas are
// grouped by node shard; each shard pays one lock acquisition and one
// LSN for its whole group, and emits a single compact MutBeat record —
// one WAL frame per shard per flush, however many nodes beat. The LSN
// is allocated under the shard lock
// (the same watermark discipline as every other mutator), so an
// ExportState watermark read before this shard is serialized bounds
// exactly what that shard's copy contains.
func (d *DB) TouchNodes(beats []BeatDelta) int {
	if len(beats) == 0 {
		return 0
	}
	// Group per shard by counting sort into one backing array — flush
	// batches run hot, and a map[int][]BeatDelta here costs half the
	// commit in allocator time.
	shards := make([]int, len(beats))
	counts := make([]int, d.shardCount)
	for i, b := range beats {
		s := shardOf(b.NodeID, d.shardCount)
		shards[i] = s
		counts[s]++
	}
	next := make([]int, d.shardCount)
	sum := 0
	for s, c := range counts {
		next[s] = sum
		sum += c
	}
	grouped := make([]BeatDelta, len(beats))
	for i, b := range beats {
		s := shards[i]
		grouped[next[s]] = b
		next[s]++
	}
	applied := 0
	for idx := 0; idx < d.shardCount; idx++ {
		if counts[idx] == 0 {
			continue
		}
		group := grouped[next[idx]-counts[idx] : next[idx]]
		s := d.nodes[idx]
		s.mu.Lock()
		kept := group[:0]
		for _, b := range group {
			n, ok := s.recs[b.NodeID]
			if !ok || !b.At.After(n.LastHeartbeat) {
				continue
			}
			// No nodeGen bump: placement never reads LastHeartbeat.
			// No clone either: the successor differs in LastHeartbeat
			// alone, and an installed record's GPUs are never written.
			cp := *n
			cp.LastHeartbeat = b.At
			s.recs[b.NodeID] = &cp
			kept = append(kept, b)
		}
		if len(kept) == 0 {
			s.mu.Unlock()
			continue
		}
		lsn := d.lsn.Add(1)
		s.mu.Unlock()
		d.emit(Mutation{LSN: lsn, Type: MutBeat, Beats: kept})
		applied += len(kept)
	}
	return applied
}

// RecordHealth folds health events into one node's score under the
// shard lock (see Store.RecordHealth). The emitted MutNodeHealth
// record carries the resulting score as an after-image — replay
// installs it directly, no re-fold — plus the events, so the
// health-score-consistent audit can recompute the fold.
func (d *DB) RecordHealth(nodeID string, at time.Time, events []gpu.HealthEvent,
	fold func(prev float64, prevAt time.Time) float64) (float64, bool) {
	s := d.nodeShard(nodeID)
	s.mu.Lock()
	n, ok := s.recs[nodeID]
	if !ok || !at.After(n.HealthAt) {
		s.mu.Unlock()
		return 0, false
	}
	score := fold(n.Health, n.HealthAt)
	cp := cloneNode(*n)
	cp.Health, cp.HealthAt = score, at
	s.recs[nodeID] = &cp
	d.nodeGen.Add(1)
	lsn := d.lsn.Add(1)
	s.mu.Unlock()
	d.emit(Mutation{LSN: lsn, Type: MutNodeHealth, Health: &HealthDelta{
		NodeID: nodeID, Score: score, At: at, Events: events,
	}})
	return score, true
}

// ListNodes returns copies of all nodes, sorted by ID. Shards are read-
// locked one at a time — readers never stop the whole store. The copies
// are shallow: installed records are copy-on-write, so sharing their
// GPU slices is safe as long as the caller does not mutate them.
func (d *DB) ListNodes() []NodeRecord {
	var out []NodeRecord
	for _, s := range d.nodes {
		s.mu.RLock()
		out = slices.Grow(out, len(s.recs))
		for _, n := range s.recs {
			out = append(out, *n)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveNodes returns the installed records of the NodeActive nodes,
// unsorted and uncopied (see Store.ActiveNodes).
func (d *DB) ActiveNodes() []*NodeRecord {
	var out []*NodeRecord
	for _, s := range d.nodes {
		s.mu.RLock()
		out = slices.Grow(out, len(s.recs))
		for _, n := range s.recs {
			if n.Status == NodeActive {
				out = append(out, n)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// NodeGeneration implements Store.
func (d *DB) NodeGeneration() uint64 { return d.nodeGen.Load() }

// syncHeld re-derives, unlogged, the device flags of the nodes old and
// cur (old nil: an insert) ran on. Callers hold the job table's lock.
func (d *DB) syncHeld(old, cur *JobRecord) {
	for _, rec := range [2]*JobRecord{old, cur} {
		if rec == nil || rec.State != JobRunning {
			continue
		}
		s := d.nodeShard(rec.NodeID)
		s.mu.Lock()
		if n, ok := s.recs[rec.NodeID]; ok {
			cp := cloneNode(*n)
			if d.jobs.derive(&cp) {
				s.recs[rec.NodeID] = &cp
				d.nodeGen.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// --- Jobs ---

// InsertJob adds a new job record; the ID must be unused.
func (d *DB) InsertJob(j JobRecord) error {
	t := &d.jobs
	t.mu.Lock()
	if _, exists := t.recs[j.ID]; exists {
		t.mu.Unlock()
		return fmt.Errorf("%w: job %s", ErrConflict, j.ID)
	}
	cp := cloneJob(j)
	t.recs[j.ID] = &cp
	t.indexInsert(&cp)
	d.syncHeld(nil, &cp)
	lsn := d.lsn.Add(1)
	t.mu.Unlock()
	d.emit(Mutation{LSN: lsn, Type: MutJobPut, Job: &cp})
	return nil
}

// GetJob returns a copy of the job record.
func (d *DB) GetJob(id string) (JobRecord, error) {
	t := &d.jobs
	t.mu.RLock()
	defer t.mu.RUnlock()
	j, ok := t.recs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	return *j, nil
}

// UpdateJob applies fn to the job record under the table lock. fn runs
// on a private clone (copy-on-write); the indexes and device flags
// follow the new record in the same critical section.
func (d *DB) UpdateJob(id string, fn func(*JobRecord)) error {
	t := &d.jobs
	t.mu.Lock()
	old, ok := t.recs[id]
	if !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	cp := cloneJob(*old)
	fn(&cp)
	t.indexRemove(old)
	t.recs[id] = &cp
	t.indexInsert(&cp)
	d.syncHeld(old, &cp)
	lsn := d.lsn.Add(1)
	t.mu.Unlock()
	d.emit(Mutation{LSN: lsn, Type: MutJobPut, Job: &cp})
	return nil
}

// CountJobsInState reads the state counter — O(1), no job scan.
func (d *DB) CountJobsInState(state JobState) int {
	d.jobs.mu.RLock()
	defer d.jobs.mu.RUnlock()
	return d.jobs.stateCount[state]
}

// ListJobs returns copies of all jobs, sorted by ID.
func (d *DB) ListJobs() []JobRecord {
	var out []JobRecord
	d.jobs.mu.RLock()
	out = slices.Grow(out, len(d.jobs.recs))
	for _, j := range d.jobs.recs {
		out = append(out, *j)
	}
	d.jobs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// JobsInState returns jobs in the given state, sorted by priority
// descending then submission time ascending — the pending-queue order.
// For the live states the queue index already holds the records in that
// order, so the query copies them out: O(result), never a full-table
// scan. Terminal-state slices are unordered (see orderedState), so
// their — rare — listings sort at query time, still touching only the
// matching records.
func (d *DB) JobsInState(state JobState) []JobRecord {
	d.jobs.mu.RLock()
	q := d.jobs.queue[state]
	out := make([]JobRecord, len(q))
	for i, rec := range q {
		out[i] = *rec
	}
	d.jobs.mu.RUnlock()
	if !orderedState(state) {
		sort.Slice(out, func(i, j int) bool { return queueLess(&out[i], &out[j]) })
	}
	return out
}

// JobsOnNode returns the jobs currently running on the node, sorted by
// ID. The byNode index makes this O(jobs on the node) — the heartbeat
// anti-entropy path never scans the job table.
func (d *DB) JobsOnNode(nodeID string) []JobRecord {
	var out []JobRecord
	d.jobs.mu.RLock()
	for _, rec := range d.jobs.byNode[nodeID] {
		out = append(out, *rec)
	}
	d.jobs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Allocations ---

// RecordAllocation appends a placement episode.
func (d *DB) RecordAllocation(a AllocationRecord) {
	t := &d.allocs
	t.mu.Lock()
	t.episodes = append(t.episodes, a)
	lsn := d.lsn.Add(1)
	t.mu.Unlock()
	image := a
	d.emit(Mutation{LSN: lsn, Type: MutAllocOpen, Alloc: &image})
}

// CloseAllocation sets the End time of the job's most recent open
// allocation episode, wherever it was placed.
func (d *DB) CloseAllocation(jobID string, end time.Time) error {
	return d.CloseAllocationEpisode(jobID, "", "", end)
}

// CloseAllocationEpisode sets the End time of the job's most recent
// open episode on the given node and device (both empty: on any).
// Unlike CloseAllocation, an open episode of the same job on a
// *different* placement is left alone — the guarantee concurrent
// reconciliation paths rely on.
func (d *DB) CloseAllocationEpisode(jobID, nodeID, deviceID string, end time.Time) error {
	t := &d.allocs
	t.mu.Lock()
	for i := len(t.episodes) - 1; i >= 0; i-- {
		a := &t.episodes[i]
		if a.JobID == jobID && a.End.IsZero() &&
			(nodeID == "" && deviceID == "" || a.NodeID == nodeID && a.DeviceID == deviceID) {
			a.End = end
			closed := *a
			lsn := d.lsn.Add(1)
			t.mu.Unlock()
			d.emit(Mutation{LSN: lsn, Type: MutAllocClose, Alloc: &closed})
			return nil
		}
	}
	t.mu.Unlock()
	return fmt.Errorf("%w: open allocation for job %s on %s/%s", ErrNotFound, jobID, nodeID, deviceID)
}

// Allocations returns a copy of the allocation history, ordered by start
// time (then job then node; ties keep the order they were recorded in).
func (d *DB) Allocations() []AllocationRecord {
	d.allocs.mu.RLock()
	out := slices.Clone(d.allocs.episodes)
	d.allocs.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		if out[i].JobID != out[j].JobID {
			return out[i].JobID < out[j].JobID
		}
		return out[i].NodeID < out[j].NodeID
	})
	return out
}

// --- Monitoring samples ---

// AppendSample stores one monitoring data point; see AppendSamples.
func (d *DB) AppendSample(s Sample) { d.AppendSamples([]Sample{s}) }

// AppendSamples stores a batch of monitoring data points as soft
// state: they go into the in-memory ring and nowhere else. They take no
// LSN and never reach the mutation hook — not logged, not shipped, no
// I/O wait — and observers see one LSN-less MutSamplePut per point.
// History persists only through ExportState (see the package comment).
// One batch is one critical section.
//
// Retention is an exact global FIFO: once the store holds maxSamples
// points, every append evicts the oldest one, whichever node it came
// from.
func (d *DB) AppendSamples(points []Sample) {
	if len(points) == 0 {
		return
	}
	images := slices.Clone(points) // observers may retain the payloads
	r := &d.samples
	r.mu.Lock()
	if r.ring == nil {
		// The whole bound at once: its pages count toward RSS only as
		// points land in them, and a ring that never grows never holds
		// an old copy of itself beside a new one.
		r.ring = make([]Sample, d.maxSamples)
	}
	for _, s := range images {
		r.push(s)
	}
	r.mu.Unlock()
	for i := range images {
		d.observers.notify(Mutation{Type: MutSamplePut, Sample: &images[i]})
	}
}

// SamplesInRange returns samples for metric within [from, to), all nodes
// if nodeID is empty, ordered by time (ties in append order).
func (d *DB) SamplesInRange(metric, nodeID string, from, to time.Time) []Sample {
	var out []Sample
	d.samples.mu.RLock()
	older, newer := d.samples.points()
	for _, run := range [2][]Sample{older, newer} {
		for _, s := range run {
			if s.Metric == metric && (nodeID == "" || s.NodeID == nodeID) &&
				!s.Time.Before(from) && s.Time.Before(to) {
				out = append(out, s)
			}
		}
	}
	d.samples.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}
