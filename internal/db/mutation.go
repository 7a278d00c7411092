package db

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gpunion/internal/gpu"
)

// MutationType tags one typed mutation record emitted by a Store. The
// write-ahead log (internal/wal) persists these records; recovery
// replays them through Apply.
type MutationType string

// Mutation types. Every mutating Store operation maps onto exactly one
// of them; node and job mutations carry full after-images so replay is
// idempotent (last write wins).
const (
	// MutNodePut is a node after-image: registration, heartbeat-state
	// change, departure bookkeeping; replay derives its device flags.
	MutNodePut MutationType = "node_put"
	// MutJobPut is a job after-image: submission, every state
	// transition (scheduled, moved, completed, …).
	MutJobPut MutationType = "job_put"
	// MutAllocOpen records a new placement episode.
	MutAllocOpen MutationType = "alloc_open"
	// MutAllocClose records the closing of a placement episode; the
	// Alloc payload is the closed episode's after-image (End set), so
	// replay targets exactly the episode that was closed.
	MutAllocClose MutationType = "alloc_close"
	// MutSamplePut announces one monitoring data point to observers.
	// Samples are soft state (see AppendSamples): no LSN, no hook call,
	// and Apply skips the type — older binaries logged it.
	MutSamplePut MutationType = "sample_put"
	// MutBeat is a coalesced heartbeat delta: one record carries the
	// LastHeartbeat advances of every no-op beat that landed on one node
	// shard in a flush window. Unlike MutNodePut it is not a full
	// after-image — steady-state beats write bytes proportional to churn,
	// not fleet size — but replay stays idempotent because each delta
	// only ever moves LastHeartbeat forward.
	MutBeat MutationType = "beat"
	// MutNodeHealth is a health-score fold: one node's Health/HealthAt
	// advance, carrying the resulting score as an after-image (replay
	// installs it without re-folding) together with the health events
	// that produced it (so the health-score-consistent audit can
	// recompute the fold). Replay is idempotent because each record
	// only ever moves HealthAt forward.
	MutNodeHealth MutationType = "node_health"
)

// BeatDelta is one node's entry in a coalesced MutBeat record: the node
// whose LastHeartbeat advanced, and the instant it advanced to. Nothing
// else about the record changed (that is what made the beat a no-op and
// eligible for coalescing).
type BeatDelta struct {
	NodeID string    `json:"node_id"`
	At     time.Time `json:"at"`
}

// HealthDelta is a MutNodeHealth record's payload: the node whose
// health score advanced, the folded score and fold instant
// (after-image — replay installs these directly), and the events that
// were folded in (audit evidence — the health-score-consistent
// invariant recomputes the fold from them).
type HealthDelta struct {
	NodeID string            `json:"node_id"`
	Score  float64           `json:"score"`
	At     time.Time         `json:"at"`
	Events []gpu.HealthEvent `json:"events,omitempty"`
}

// Mutation is the typed record a Store emits for every state change.
// LSN is a store-wide monotone sequence number assigned under the
// target table's lock, so sorting a batch of mutations by LSN recovers
// the per-record mutation order even when the hook observed them out of
// order.
type Mutation struct {
	LSN    uint64            `json:"lsn"`
	Type   MutationType      `json:"type"`
	Node   *NodeRecord       `json:"node,omitempty"`
	Job    *JobRecord        `json:"job,omitempty"`
	Alloc  *AllocationRecord `json:"alloc,omitempty"`
	Sample *Sample           `json:"sample,omitempty"`
	// Beats carries a MutBeat record's deltas; every delta in one record
	// targets the same node shard (one critical section, one WAL frame).
	Beats []BeatDelta `json:"beats,omitempty"`
	// Health carries a MutNodeHealth record's fold.
	Health *HealthDelta `json:"health,omitempty"`
}

// MutationHook observes committed mutations. It is invoked after the
// table lock is released, so a hook may block (e.g. on a group-commit
// fsync) without stalling other writers. The store's acknowledgement of
// the operation to its caller happens only after the hook returns — a
// durable hook therefore gives durable-before-ack semantics without
// holding any lock across I/O.
//
// One hook call is one record and one durability unit. Monitoring
// samples are the one write that never reaches the hook: they are soft
// state, announced to observers only (see AppendSamples).
//
// Payloads are immutable after-images: the store installs records
// copy-on-write and emits the installed record itself, so a hook (or
// observer) may retain the pointer indefinitely but must never mutate
// it.
type MutationHook func(Mutation)

// observerList fans one mutation stream out to any number of derived-
// state subscribers (metrics, stream audits, …) registered via
// AddMutationObserver. Registration is copy-on-write so the notify
// path is one atomic load plus a slice walk.
type observerList struct {
	mu   sync.Mutex
	seq  int
	subs map[int]MutationHook
	list atomic.Pointer[[]MutationHook]
}

// add registers h and returns its cancel function.
func (o *observerList) add(h MutationHook) func() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.subs == nil {
		o.subs = make(map[int]MutationHook)
	}
	o.seq++
	id := o.seq
	o.subs[id] = h
	o.rebuild()
	return func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		delete(o.subs, id)
		o.rebuild()
	}
}

// rebuild republishes the subscriber slice; callers hold o.mu.
func (o *observerList) rebuild() {
	if len(o.subs) == 0 {
		o.list.Store(nil)
		return
	}
	ids := make([]int, 0, len(o.subs))
	for id := range o.subs {
		ids = append(ids, id)
	}
	slices.Sort(ids) // registration order, deterministic
	l := make([]MutationHook, 0, len(ids))
	for _, id := range ids {
		l = append(l, o.subs[id])
	}
	o.list.Store(&l)
}

// notify delivers m to every registered observer.
func (o *observerList) notify(m Mutation) {
	if l := o.list.Load(); l != nil {
		for _, h := range *l {
			h(m)
		}
	}
}

// State is the serializable full-store image used by snapshots,
// Save/Load, and recovery. Watermark is the store's LSN at the moment
// the export began: every mutation with LSN ≤ Watermark is fully
// contained in the State, and any mutation with a higher LSN may or may
// not be — replaying those on top of the State (in LSN order, through
// the idempotent Apply) converges to the live store's content.
type State struct {
	Watermark   uint64             `json:"watermark"`
	Nodes       []NodeRecord       `json:"nodes"`
	Jobs        []JobRecord        `json:"jobs"`
	Allocations []AllocationRecord `json:"allocations"`
	Samples     []Sample           `json:"samples"`
}

// cloneNode deep-copies the record's slice fields. The stores use it at
// every install point that may change them (copy-on-write): an
// installed record owns or shares-immutably its slices and is never
// modified, so readers — and a successor that changes only scalar
// fields, as TouchNodes installs — can share them.
func cloneNode(n NodeRecord) NodeRecord {
	n.GPUs = slices.Clone(n.GPUs)
	return n
}

// cloneJob deep-copies the record's slice and pointer fields.
func cloneJob(j JobRecord) JobRecord {
	j.StoragePrefs = slices.Clone(j.StoragePrefs)
	j.Entrypoint = slices.Clone(j.Entrypoint)
	if j.Training != nil {
		cp := *j.Training
		j.Training = &cp
	}
	return j
}

// sameAllocIdentity compares allocation episodes by identity — job,
// placement and start instant — using time.Time.Equal so JSON
// round-trips (which normalize monotonic clock readings and locations)
// still compare equal. End is deliberately excluded: a replayed open
// whose episode was meanwhile closed must still match it.
func sameAllocIdentity(a, b AllocationRecord) bool {
	return a.JobID == b.JobID && a.NodeID == b.NodeID && a.DeviceID == b.DeviceID &&
		a.Start.Equal(b.Start)
}

// raiseLSN advances the counter to at least lsn (replay keeps the
// counter ahead of every durable mutation).
func raiseLSN(ctr *atomic.Uint64, lsn uint64) {
	for {
		cur := ctr.Load()
		if lsn <= cur || ctr.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// --- Hook, export and replay ---

// SetMutationHook installs (or, with nil, removes) the hook observing
// every committed mutation. Replay via Apply does not invoke the hook.
func (d *DB) SetMutationHook(h MutationHook) {
	if h == nil {
		d.hook.Store(nil)
		return
	}
	d.hook.Store(&h)
}

// CurrentLSN reports the store's mutation sequence counter.
func (d *DB) CurrentLSN() uint64 { return d.lsn.Load() }

// AddMutationObserver registers a derived-state subscriber; see the
// Store interface for the contract.
func (d *DB) AddMutationObserver(h MutationHook) (cancel func()) {
	return d.observers.add(h)
}

// emit invokes the installed mutation hook and then every observer.
// Callers must not hold any table lock; payloads are immutable
// after-images (see MutationHook).
func (d *DB) emit(m Mutation) {
	if h := d.hook.Load(); h != nil {
		(*h)(m)
	}
	d.observers.notify(m)
}

// ExportState collects a snapshot image one lock at a time: each node
// shard and each other table is read-locked briefly, so commits
// elsewhere proceed while the export is in flight — unlike the legacy
// Save, nothing quiesces the whole store. The result is a *fuzzy*
// checkpoint: consistent per record, with Watermark bounding what it is
// guaranteed to contain (see State).
func (d *DB) ExportState() State {
	st := State{Watermark: d.lsn.Load()}
	for _, s := range d.nodes {
		s.mu.RLock()
		for _, n := range s.recs {
			// Shallow copies: installed records are copy-on-write.
			st.Nodes = append(st.Nodes, *n)
		}
		s.mu.RUnlock()
	}
	d.jobs.mu.RLock()
	for _, j := range d.jobs.recs {
		st.Jobs = append(st.Jobs, *j)
	}
	d.jobs.mu.RUnlock()
	d.allocs.mu.RLock()
	st.Allocations = append(st.Allocations, d.allocs.episodes...)
	d.allocs.mu.RUnlock()
	d.samples.mu.RLock()
	older, newer := d.samples.points()
	st.Samples = append(append(st.Samples, older...), newer...)
	d.samples.mu.RUnlock()
	sortState(&st)
	return st
}

// ImportState replaces the store's contents with the given image,
// write-locking every table for the swap (recovery runs before the
// store is shared, so the quiesce is free there). Locks are taken in one
// fixed order — jobs, node shards ascending, allocations, samples — so
// concurrent imports cannot deadlock. The materialized job indexes (and
// device flags) are derived state: they are rebuilt here from the
// imported records, never restored from the image.
func (d *DB) ImportState(st State) {
	d.jobs.mu.Lock()
	defer d.jobs.mu.Unlock()
	for _, s := range d.nodes {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	for _, mu := range []*sync.RWMutex{&d.allocs.mu, &d.samples.mu} {
		mu.Lock()
		defer mu.Unlock()
	}
	d.jobs.reset()
	for _, j := range st.Jobs {
		cp := cloneJob(j)
		d.jobs.recs[j.ID] = &cp
		d.jobs.indexInsert(&cp)
	}
	for _, s := range d.nodes {
		s.recs = make(map[string]*NodeRecord)
	}
	for _, n := range st.Nodes {
		cp := cloneNode(n)
		d.jobs.derive(&cp)
		d.nodeShard(n.ID).recs[n.ID] = &cp
	}
	d.nodeGen.Add(1)
	d.allocs.episodes = append([]AllocationRecord(nil), st.Allocations...)
	r := &d.samples
	r.ring, r.head, r.n = nil, 0, len(st.Samples)
	if r.n > 0 {
		// An image over the bound keeps every point it holds.
		r.ring = make([]Sample, max(d.maxSamples, r.n))
		copy(r.ring, st.Samples)
	}
	raiseLSN(&d.lsn, st.Watermark)
}

// Apply replays one mutation record. It is idempotent — a record whose
// effect is already present (because a fuzzy snapshot captured it) is a
// no-op — and does not invoke the mutation hook, so recovery never
// re-logs what it replays. Records must be applied in ascending LSN
// order for after-images to land last-writer-wins.
func (d *DB) Apply(m Mutation) error {
	defer raiseLSN(&d.lsn, m.LSN)
	switch m.Type {
	case MutNodePut:
		if m.Node == nil {
			return fmt.Errorf("db: %s mutation without node payload", m.Type)
		}
		d.putNode(*m.Node, false)
	case MutJobPut:
		if m.Job == nil {
			return fmt.Errorf("db: %s mutation without job payload", m.Type)
		}
		t := &d.jobs
		t.mu.Lock()
		old := t.recs[m.Job.ID]
		if old != nil {
			t.indexRemove(old)
		}
		cp := cloneJob(*m.Job)
		t.recs[cp.ID] = &cp
		t.indexInsert(&cp)
		d.syncHeld(old, &cp)
		t.mu.Unlock()
	case MutAllocOpen:
		if m.Alloc == nil {
			return fmt.Errorf("db: %s mutation without alloc payload", m.Type)
		}
		t := &d.allocs
		t.mu.Lock()
		if !slices.ContainsFunc(t.episodes, func(e AllocationRecord) bool { return sameAllocIdentity(e, *m.Alloc) }) {
			t.episodes = append(t.episodes, *m.Alloc)
		}
		t.mu.Unlock()
	case MutAllocClose:
		if m.Alloc == nil {
			return fmt.Errorf("db: %s mutation without alloc payload", m.Type)
		}
		t := &d.allocs
		t.mu.Lock()
		applyAllocClose(&t.episodes, *m.Alloc)
		t.mu.Unlock()
	case MutSamplePut:
		// Samples are soft state and no longer logged; a log written by
		// an older binary replays without its samples, never an error.
		// The record keeps its LSN slot (the deferred raiseLSN), so no
		// later record reuses an LSN that log already holds.
	case MutBeat:
		if len(m.Beats) == 0 {
			return fmt.Errorf("db: %s mutation without beat payload", m.Type)
		}
		// All deltas in one record share a shard by construction, but
		// replay does not rely on that — each delta locks its own shard.
		// A delta whose node is gone, or whose advance is already
		// reflected, is a no-op (idempotent, forward-only).
		for _, b := range m.Beats {
			s := d.nodeShard(b.NodeID)
			s.mu.Lock()
			if n, ok := s.recs[b.NodeID]; ok && b.At.After(n.LastHeartbeat) {
				cp := cloneNode(*n)
				cp.LastHeartbeat = b.At
				s.recs[b.NodeID] = &cp
			}
			s.mu.Unlock()
		}
	case MutNodeHealth:
		if m.Health == nil {
			return fmt.Errorf("db: %s mutation without health payload", m.Type)
		}
		// The carried score is an after-image: install it verbatim (no
		// re-fold), forward-only on HealthAt so replay is idempotent and
		// byte-equal with the live store.
		h := m.Health
		s := d.nodeShard(h.NodeID)
		s.mu.Lock()
		if n, ok := s.recs[h.NodeID]; ok && h.At.After(n.HealthAt) {
			cp := cloneNode(*n)
			cp.Health, cp.HealthAt = h.Score, h.At
			s.recs[h.NodeID] = &cp
			d.nodeGen.Add(1)
		}
		s.mu.Unlock()
	default:
		return fmt.Errorf("db: unknown mutation type %q", m.Type)
	}
	return nil
}

// applyAllocClose replays a close record against an episode list: it
// finds the exact episode the close targeted (same identity, End still
// zero) and stamps its End. An already-closed identical episode means
// the effect is present (no-op); a missing episode gets the closed
// after-image appended so no history is lost.
func applyAllocClose(episodes *[]AllocationRecord, closed AllocationRecord) {
	for i := len(*episodes) - 1; i >= 0; i-- {
		e := &(*episodes)[i]
		if e.JobID != closed.JobID || e.NodeID != closed.NodeID ||
			e.DeviceID != closed.DeviceID || !e.Start.Equal(closed.Start) {
			continue
		}
		if e.End.IsZero() {
			e.End = closed.End
		}
		return // identity matched: effect present either way
	}
	*episodes = append(*episodes, closed)
}

// sortState orders every table deterministically (the same orders
// Save always used), so exported images are directly comparable.
func sortState(st *State) {
	slices.SortFunc(st.Nodes, func(a, b NodeRecord) int {
		return compareStrings(a.ID, b.ID)
	})
	slices.SortFunc(st.Jobs, func(a, b JobRecord) int {
		return compareStrings(a.ID, b.ID)
	})
	slices.SortStableFunc(st.Allocations, func(a, b AllocationRecord) int {
		if !a.Start.Equal(b.Start) {
			if a.Start.Before(b.Start) {
				return -1
			}
			return 1
		}
		if a.JobID != b.JobID {
			return compareStrings(a.JobID, b.JobID)
		}
		return compareStrings(a.NodeID, b.NodeID)
	})
	slices.SortStableFunc(st.Samples, func(a, b Sample) int {
		if a.Time.Before(b.Time) {
			return -1
		}
		if b.Time.Before(a.Time) {
			return 1
		}
		return 0
	})
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
