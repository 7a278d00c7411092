package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/chaos"
	"gpunion/internal/checkpoint"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

// beatRig is a coordinator with silent agents: nodes are registered but
// never beat on their own, so each test delivers exactly the heartbeats
// it wants to reason about.
type beatRig struct {
	t      *testing.T
	clock  *simclock.Sim
	store  db.Store
	coord  *Coordinator
	ckpts  *checkpoint.Store
	tokens map[string]string
	epochs map[string]uint64
	seqs   map[string]uint64
	ags    map[string]*agent.Agent
}

func newBeatRig(t *testing.T, interval time.Duration, store db.Store) *beatRig {
	t.Helper()
	clock := simclock.NewSim(t0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := New(Config{HeartbeatInterval: interval}, clock, store, ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	return &beatRig{t: t, clock: clock, store: store, coord: coord, ckpts: ckpts,
		tokens: make(map[string]string), epochs: make(map[string]uint64),
		seqs: make(map[string]uint64), ags: make(map[string]*agent.Agent)}
}

func (b *beatRig) addSilentNode(id string, devices ...gpu.Spec) {
	b.t.Helper()
	if len(devices) == 0 {
		devices = []gpu.Spec{gpu.RTX3090}
	}
	ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, b.clock, devices, b.ckpts, nil)
	b.t.Cleanup(ag.Stop)
	resp, err := b.coord.Register(ag.RegisterRequest("inproc://"+id, 1<<30), agent.NewInProcessClient(ag))
	if err != nil {
		b.t.Fatal(err)
	}
	b.tokens[id], b.epochs[id], b.ags[id] = resp.Token, resp.LeaderEpoch, ag
}

// beatReq builds the next in-sequence heartbeat for the node: empty
// telemetry, no running jobs — a pure liveness report.
func (b *beatRig) beatReq(id string) api.HeartbeatRequest {
	b.seqs[id]++
	return api.HeartbeatRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: b.epochs[id]},
		MachineID: id, Token: b.tokens[id], BeatSeq: b.seqs[id],
	}
}

func (b *beatRig) beat(id string) api.HeartbeatResponse {
	b.t.Helper()
	resp, err := b.coord.Heartbeat(b.beatReq(id))
	if err != nil {
		b.t.Fatal(err)
	}
	return resp
}

// guardEntries reads the dedup map and coalescing buffer under the lock.
func guardEntries(c *Coordinator) (seq map[string]uint64, buffered map[string]time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq = make(map[string]uint64, len(c.beatSeq))
	for k, v := range c.beatSeq {
		seq[k] = v
	}
	buffered = make(map[string]time.Time, len(c.beats))
	for k, v := range c.beats {
		buffered[k] = v
	}
	return seq, buffered
}

// TestBeatSeqPrunedOnDepartureAndSweep: the dedup high-water mark and
// any buffered beat die with the membership — an announced departure
// and a sweep-dead verdict must both prune their node's entries, or the
// maps grow one entry per churned node forever.
func TestBeatSeqPrunedOnDepartureAndSweep(t *testing.T) {
	b := newBeatRig(t, time.Minute, db.New(0))
	b.addSilentNode("n1")
	b.addSilentNode("n2")
	b.clock.Advance(10 * time.Second)
	b.beat("n1")
	b.beat("n2")
	seq, buffered := guardEntries(b.coord)
	if seq["n1"] != 1 || seq["n2"] != 1 {
		t.Fatalf("guard not armed: %v", seq)
	}
	if len(buffered) != 2 {
		t.Fatalf("no-op beats not buffered: %v", buffered)
	}

	if err := b.coord.Depart(api.DepartRequest{MachineID: "n1", Token: b.tokens["n1"], Reason: api.DepartScheduled}); err != nil {
		t.Fatal(err)
	}
	seq, buffered = guardEntries(b.coord)
	if _, ok := seq["n1"]; ok {
		t.Fatal("departure left n1 in the dedup map")
	}
	if _, ok := buffered["n1"]; ok {
		t.Fatal("departure left n1's beat in the coalescing buffer")
	}
	if seq["n2"] != 1 {
		t.Fatalf("departure of n1 disturbed n2's entry: %v", seq)
	}

	// n2 falls silent; the sweep declares it dead and must prune too.
	b.clock.Advance(5 * time.Minute)
	rec, err := b.store.GetNode("n2")
	if err != nil || rec.Status != db.NodeUnreachable {
		t.Fatalf("n2 = %+v, %v (want unreachable)", rec, err)
	}
	seq, buffered = guardEntries(b.coord)
	if _, ok := seq["n2"]; ok {
		t.Fatal("sweep left n2 in the dedup map")
	}
	if len(buffered) != 0 {
		t.Fatalf("sweep left buffered beats: %v", buffered)
	}
}

// TestReplayedBeatFromSweptNodeReregisters: a replay is only
// acknowledged while the node is a live member. If the node was swept
// dead since the original beat, the replay must answer Reregister —
// replays are side-effect-free and cannot re-adopt the node, so acking
// would silence the agent's retry loop against a dead membership.
func TestReplayedBeatFromSweptNodeReregisters(t *testing.T) {
	b := newBeatRig(t, time.Minute, db.New(0))
	b.addSilentNode("n1")
	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	if resp, err := b.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("original beat = %+v, %v", resp, err)
	}
	// Silence until the sweep declares the node dead.
	b.clock.Advance(5 * time.Minute)
	if rec, err := b.store.GetNode("n1"); err != nil || rec.Status != db.NodeUnreachable {
		t.Fatalf("n1 = %+v, %v (want unreachable)", rec, err)
	}
	// Re-arm the guard entry the sweep pruned: this is the replay that
	// raced the sweep — its sequence is claimed, the node is dead.
	b.coord.mu.Lock()
	b.coord.beatSeq["n1"] = req.BeatSeq
	b.coord.mu.Unlock()
	resp, err := b.coord.Heartbeat(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Acknowledged || !resp.Reregister {
		t.Fatalf("replay from swept-dead node = %+v, want Reregister", resp)
	}
}

// mutationLog records the store's typed-mutation stream for a test.
type mutationLog struct {
	mu   sync.Mutex
	muts []db.Mutation
}

func (l *mutationLog) observe(m db.Mutation) {
	l.mu.Lock()
	l.muts = append(l.muts, m)
	l.mu.Unlock()
}

func (l *mutationLog) byType(t db.MutationType) []db.Mutation {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []db.Mutation
	for _, m := range l.muts {
		if m.Type == t {
			out = append(out, m)
		}
	}
	return out
}

// TestNoopBeatCoalesced: a steady-state beat must not push a full node
// after-image — it parks in the buffer and the flush tick commits one
// MutBeat record, after which the store's LastHeartbeat has advanced.
func TestNoopBeatCoalesced(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	lg := &mutationLog{}
	cancel := store.AddMutationObserver(lg.observe)
	defer cancel()

	b.clock.Advance(10 * time.Second)
	beatAt := b.clock.Now()
	b.beat("n1")
	if n := len(lg.byType(db.MutNodePut)); n != 0 {
		t.Fatalf("no-op beat emitted %d full after-images", n)
	}
	rec, _ := store.GetNode("n1")
	if rec.LastHeartbeat.Equal(beatAt) {
		t.Fatal("beat hit the store before the flush tick")
	}

	// The flush tick is a quarter interval out.
	b.clock.Advance(15 * time.Second)
	beats := lg.byType(db.MutBeat)
	if len(beats) != 1 || len(beats[0].Beats) != 1 || beats[0].Beats[0].NodeID != "n1" {
		t.Fatalf("flush emitted %+v, want one MutBeat carrying n1", beats)
	}
	rec, _ = store.GetNode("n1")
	if !rec.LastHeartbeat.Equal(beatAt) {
		t.Fatalf("flushed heartbeat = %s, want %s", rec.LastHeartbeat, beatAt)
	}
	if n := len(lg.byType(db.MutNodePut)); n != 0 {
		t.Fatalf("coalesced flush emitted %d full after-images", n)
	}
}

// TestStateChangingBeatTakesFullPath: a beat that changes anything
// beyond LastHeartbeat (here: the provider pausing) must commit the
// full after-image immediately, not park in the buffer.
func TestStateChangingBeatTakesFullPath(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	req.Paused = true
	if _, err := b.coord.Heartbeat(req); err != nil {
		t.Fatal(err)
	}
	rec, _ := store.GetNode("n1")
	if rec.Status != db.NodePaused || !rec.LastHeartbeat.Equal(b.clock.Now()) {
		t.Fatalf("pausing beat not committed immediately: %+v", rec)
	}
	if _, buffered := guardEntries(b.coord); len(buffered) != 0 {
		t.Fatalf("state-changing beat also buffered: %v", buffered)
	}
}

// TestCoalescedFlushBoundaryCrash: a crash on either side of the flush
// boundary must keep recovery byte-equivalent. Before the tick, the
// buffered advance is in neither the pre-crash image nor the log —
// volatile by design, nothing acked depends on it. After the tick, the
// MutBeat frame is durable and replay must reproduce the advance.
func TestCoalescedFlushBoundaryCrash(t *testing.T) {
	secret := []byte("coalesce-crash-secret")
	clock := simclock.NewSim(t0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	dir := t.TempDir()

	store := db.New(0)
	mgr, err := wal.Open(dir, store, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(Config{HeartbeatInterval: time.Minute, AuthSecret: secret},
		clock, store, ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	ag := agent.New(agent.Config{MachineID: "n1", Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090}, ckpts, nil)
	defer ag.Stop()
	resp, err := coord.Register(ag.RegisterRequest("inproc://n1", 1<<30), agent.NewInProcessClient(ag))
	if err != nil {
		t.Fatal(err)
	}

	hb := func(c *Coordinator, seq uint64) api.HeartbeatResponse {
		t.Helper()
		r, herr := c.Heartbeat(api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
			MachineID: "n1", Token: resp.Token, BeatSeq: seq,
		})
		if herr != nil {
			t.Fatal(herr)
		}
		return r
	}

	// Crash mid-window: the beat is buffered, unflushed.
	clock.Advance(10 * time.Second)
	hb(coord, 1)
	if _, buffered := guardEntries(coord); len(buffered) != 1 {
		t.Fatalf("beat not buffered: %v", buffered)
	}
	before := store.ExportState()
	coord.Stop()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := db.New(0)
	mgr2, err := wal.Open(dir, store2, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if vs := invariant.CheckEquivalence(before, store2.ExportState()); len(vs) != 0 {
		t.Fatalf("pre-flush crash broke equivalence: %v", vs)
	}

	// Successor serves the same node; this time the flush tick lands
	// before the crash, so the MutBeat frame must survive replay.
	coord2, err := New(Config{HeartbeatInterval: time.Minute, AuthSecret: secret},
		clock, store2, ckpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord2.RecoverState()
	if _, err := coord2.Register(ag.RegisterRequest("inproc://n1", 1<<30), agent.NewInProcessClient(ag)); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Second)
	hb(coord2, 1)
	beatAt := clock.Now()
	clock.Advance(15 * time.Second) // flush tick
	rec, _ := store2.GetNode("n1")
	if !rec.LastHeartbeat.Equal(beatAt) {
		t.Fatalf("flush did not land: %s vs %s", rec.LastHeartbeat, beatAt)
	}
	before2 := store2.ExportState()
	coord2.Stop()
	if err := mgr2.Close(); err != nil {
		t.Fatal(err)
	}
	store3 := db.New(0)
	mgr3, err := wal.Open(dir, store3, wal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr3.Close()
	if vs := invariant.CheckEquivalence(before2, store3.ExportState()); len(vs) != 0 {
		t.Fatalf("post-flush crash broke equivalence: %v", vs)
	}
	rec3, err := store3.GetNode("n1")
	if err != nil || !rec3.LastHeartbeat.Equal(beatAt) {
		t.Fatalf("recovered heartbeat = %+v, %v; want %s", rec3, err, beatAt)
	}
}

// TestDuplicateBeatIntoHalfFlushedBatch: a replayed beat delivered
// after its original was flushed — while the next batch is still
// filling — must be swallowed by the guard: no re-enqueue, no store
// write, and the fold over the mutation stream stays exact.
func TestDuplicateBeatIntoHalfFlushedBatch(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	audit, cancel := invariant.NewBeatAudit(store)
	defer cancel()

	b.clock.Advance(10 * time.Second)
	req1 := b.beatReq("n1")
	if resp, err := b.coord.Heartbeat(req1); err != nil || !resp.Acknowledged {
		t.Fatalf("original = %+v, %v", resp, err)
	}
	firstAt := b.clock.Now()
	b.clock.Advance(15 * time.Second) // flush the first batch
	rec, _ := store.GetNode("n1")
	if !rec.LastHeartbeat.Equal(firstAt) {
		t.Fatalf("first batch not flushed: %s", rec.LastHeartbeat)
	}

	// Start the next batch, then replay the old beat into it.
	b.clock.Advance(10 * time.Second)
	b.beat("n1")
	secondAt := b.clock.Now()
	lsnBefore := store.CurrentLSN()
	for i := 0; i < 3; i++ {
		resp, err := b.coord.Heartbeat(req1)
		if err != nil || !resp.Acknowledged {
			t.Fatalf("replay %d = %+v, %v", i, resp, err)
		}
	}
	if lsn := store.CurrentLSN(); lsn != lsnBefore {
		t.Fatalf("replays mutated the store: LSN %d -> %d", lsnBefore, lsn)
	}
	_, buffered := guardEntries(b.coord)
	if len(buffered) != 1 || !buffered["n1"].Equal(secondAt) {
		t.Fatalf("replay disturbed the half-flushed batch: %v", buffered)
	}

	b.clock.Advance(15 * time.Second) // flush the second batch
	rec, _ = store.GetNode("n1")
	if !rec.LastHeartbeat.Equal(secondAt) {
		t.Fatalf("second batch landed %s, want %s", rec.LastHeartbeat, secondAt)
	}
	if vs := audit.Check(store); len(vs) != 0 {
		t.Fatalf("beat-delta fold diverged: %v", vs)
	}
}

// syncCountingFS is the real filesystem with every segment fsync counted.
type syncCountingFS struct{ syncs atomic.Int64 }

func (c *syncCountingFS) OpenAppend(name string) (wal.File, error) {
	f, err := wal.OSFS{}.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &syncCountingFile{File: f, fs: c}, nil
}

type syncCountingFile struct {
	wal.File
	fs *syncCountingFS
}

func (f *syncCountingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}

// durableRig is the shipped seam — a real wal.Open under the
// coordinator — with every segment fsync counted and every OnDurable
// call recorded, and one registered two-GPU node "n1".
type durableRig struct {
	*beatRig
	fs *syncCountingFS

	mu      sync.Mutex
	durable []db.Mutation
}

func newDurableRig(t *testing.T) *durableRig {
	t.Helper()
	r := &durableRig{fs: &syncCountingFS{}}
	store := db.New(0)
	mgr, err := wal.Open(t.TempDir(), store, wal.Config{
		GroupWindow: 2 * time.Millisecond, // the shipped default
		FS:          r.fs,
		OnDurable: func(m db.Mutation) {
			r.mu.Lock()
			r.durable = append(r.durable, m)
			r.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	r.beatRig = newBeatRig(t, time.Minute, store)
	r.addSilentNode("n1", gpu.RTX3090, gpu.RTX3090)
	return r
}

// durableTypes lists the types OnDurable saw from index from on.
func (r *durableRig) durableTypes(from int) []db.MutationType {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []db.MutationType
	for _, m := range r.durable[from:] {
		out = append(out, m.Type)
	}
	return out
}

// TestTelemetryBeatIsSoftState pins what one telemetry beat costs on
// the shipped seam: nothing durable. Its four points land in the
// sample ring and on the sample_put counter, but the beat takes no LSN,
// reaches no fsync and no OnDurable. A replayed beat appends nothing.
func TestTelemetryBeatIsSoftState(t *testing.T) {
	r := newDurableRig(t)
	rec, err := r.store.GetNode("n1")
	if err != nil || len(rec.GPUs) != 2 {
		t.Fatalf("registered node: %+v err=%v", rec, err)
	}
	counter, err := r.coord.Metrics().Counter("gpunion_store_mutations_total", "",
		map[string]string{"type": string(db.MutSamplePut)})
	if err != nil {
		t.Fatal(err)
	}

	r.clock.Advance(10 * time.Second)
	req := r.beatReq("n1")
	for i, g := range rec.GPUs {
		req.Telemetry = append(req.Telemetry, gpu.Telemetry{
			DeviceID: g.DeviceID, Utilization: 0.25 * float64(i+1), UsedMemMiB: int64(1024 * (i + 1))})
	}
	syncs, lsn, acked := r.fs.syncs.Load(), r.store.CurrentLSN(), len(r.durableTypes(0))
	points := func() int {
		from, to := r.clock.Now().Add(-time.Hour), r.clock.Now().Add(time.Hour)
		return len(r.store.SamplesInRange("gpu_utilization", "n1", from, to)) +
			len(r.store.SamplesInRange("gpu_memory_used_mib", "n1", from, to))
	}
	// The beat and then the same BeatSeq again (a relay retry, a
	// duplicated delivery): the second changes nothing.
	for _, delivery := range []string{"original", "replay"} {
		if resp, err := r.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
			t.Fatalf("%s telemetry beat: %+v err=%v", delivery, resp, err)
		}
		if got := r.fs.syncs.Load() - syncs; got != 0 {
			t.Fatalf("%s: telemetry beat cost %d fsyncs, want 0", delivery, got)
		}
		if got := r.durableTypes(acked); len(got) != 0 {
			t.Fatalf("%s: OnDurable saw %v, want nothing", delivery, got)
		}
		if r.store.CurrentLSN() != lsn {
			t.Fatalf("%s: LSN moved %d -> %d", delivery, lsn, r.store.CurrentLSN())
		}
		if got := counter.Value(); got != 4 {
			t.Fatalf("%s: sample_put counter = %v, want 4", delivery, got)
		}
		if got := points(); got != 4 {
			t.Fatalf("%s: SamplesInRange returns %d points, want 4", delivery, got)
		}
	}
}

// TestDuplicateTelemetrySampleDetected is the sabotage behind
// no-duplicate-side-effects for soft state: with the dedup guard's
// high-water mark wound back, replaying a telemetry beat appends its
// samples twice without moving the LSN — the detector must still flag
// it, and must stay quiet for a guarded replay.
func TestDuplicateTelemetrySampleDetected(t *testing.T) {
	store := db.New(0)
	b := newBeatRig(t, time.Minute, store)
	b.addSilentNode("n1")
	rec, _ := store.GetNode("n1")
	b.clock.Advance(10 * time.Second)
	req := b.beatReq("n1")
	req.Telemetry = []gpu.Telemetry{{DeviceID: rec.GPUs[0].DeviceID, Utilization: 0.5, UsedMemMiB: 1024}}
	deliver := func() {
		if _, err := b.coord.Heartbeat(req); err != nil {
			t.Fatal(err)
		}
	}
	deliver()
	if vs := chaos.VerifyIdempotent(store, "guarded replay", deliver); len(vs) != 0 {
		t.Fatalf("replay swallowed by the BeatSeq guard flagged: %v", vs)
	}
	b.coord.mu.Lock()
	b.coord.beatSeq["n1"] = req.BeatSeq - 1
	b.coord.mu.Unlock()
	lsn := store.CurrentLSN()
	vs := chaos.VerifyIdempotent(store, "unguarded replay", deliver)
	if len(vs) != 1 || vs[0].Rule != "no-duplicate-side-effects" {
		t.Fatalf("duplicated telemetry samples not flagged: %v", vs)
	}
	if store.CurrentLSN() != lsn {
		t.Fatalf("sabotage moved the LSN %d -> %d; it must be caught by the observer alone", lsn, store.CurrentLSN())
	}
}

// TestHealthBeatStaysDurable is the other side of the contract: health
// events drive drainUnhealthy, so a beat carrying one still commits —
// the node after-image and the fold, each fsynced and handed to
// OnDurable before Heartbeat returns.
func TestHealthBeatStaysDurable(t *testing.T) {
	r := newDurableRig(t)
	r.clock.Advance(10 * time.Second)
	req := r.beatReq("n1")
	req.HealthEvents = []gpu.HealthEvent{warnThermal()}
	syncs, acked := r.fs.syncs.Load(), len(r.durableTypes(0))
	if resp, err := r.coord.Heartbeat(req); err != nil || !resp.Acknowledged {
		t.Fatalf("health beat: %+v err=%v", resp, err)
	}
	want := []db.MutationType{db.MutNodePut, db.MutNodeHealth}
	if got := r.durableTypes(acked); !slices.Equal(got, want) {
		t.Fatalf("OnDurable before the ack saw %v, want %v", got, want)
	}
	if got := r.fs.syncs.Load() - syncs; got != int64(len(want)) {
		t.Fatalf("health beat cost %d fsyncs, want one per record (%d)", got, len(want))
	}
}
