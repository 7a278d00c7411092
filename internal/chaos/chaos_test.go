package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/wal"
)

func testSpec() Spec {
	return Spec{
		Duration:           12 * time.Hour,
		Nodes:              []string{"n1", "n2", "n3", "n4"},
		ChurnPerNodePerDay: 8,
		PartitionsPerDay:   12,
		WALFaultsPerDay:    12,
		CoordCrashes:       2,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testSpec(), 42)
	b := Generate(testSpec(), 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := Generate(testSpec(), 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	last := time.Duration(-1)
	kinds := map[Kind]int{}
	for _, f := range a {
		if f.At < last {
			t.Fatalf("schedule not time-ordered at %v", f.At)
		}
		last = f.At
		kinds[f.Kind]++
	}
	for _, k := range []Kind{KindNodeCrash, KindNodeReturn, KindPartition, KindCoordCrash} {
		if kinds[k] == 0 {
			t.Errorf("schedule composed no %s faults (%v)", k, kinds)
		}
	}
	if kinds[KindWALSyncError]+kinds[KindWALShortWrite] == 0 {
		t.Errorf("schedule composed no WAL faults (%v)", kinds)
	}
}

func TestGenerateRespectsRates(t *testing.T) {
	sched := Generate(Spec{
		Duration: 12 * time.Hour,
		Nodes:    []string{"a", "b"},
		// Everything else zero: no faults at all.
	}, 7)
	if len(sched) != 0 {
		t.Fatalf("zero-rate spec produced %d faults", len(sched))
	}
}

// fakePlatform records actions and serves a real store so the engine's
// audits run for real.
type fakePlatform struct {
	store   *db.DB
	actions []string
	// sabotage, when set, corrupts the store on the next CrashNode —
	// proving the engine surfaces checker findings.
	sabotage bool
	walMode  WALFaultMode
	ckptMode CkptFaultMode
}

func newFakePlatform() *fakePlatform {
	s := db.New(0)
	s.UpsertNode(db.NodeRecord{ID: "n1", Status: db.NodeActive,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, Allocated: true}}})
	_ = s.InsertJob(db.JobRecord{ID: "j1", State: db.JobRunning,
		NodeID: "n1", DeviceID: "gpu0", ImageName: "img"})
	s.RecordAllocation(db.AllocationRecord{JobID: "j1", NodeID: "n1", DeviceID: "gpu0",
		Start: time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)})
	return &fakePlatform{store: s}
}

func (p *fakePlatform) Store() db.Store { return p.store }
func (p *fakePlatform) CrashNode(id string) {
	p.actions = append(p.actions, "crash:"+id)
	if p.sabotage {
		// Break running-node-live: the node dies but its job record
		// stays Running.
		_ = p.store.UpdateNode("n1", func(n *db.NodeRecord) { n.Status = db.NodeUnreachable })
	}
}
func (p *fakePlatform) DepartNode(id string, tmp bool) { p.actions = append(p.actions, "depart:"+id) }
func (p *fakePlatform) ReturnNode(id string)           { p.actions = append(p.actions, "return:"+id) }
func (p *fakePlatform) PartitionStart(ids []string) {
	p.actions = append(p.actions, fmt.Sprint("part-start ", ids))
}
func (p *fakePlatform) PartitionHeal(ids []string) {
	p.actions = append(p.actions, fmt.Sprint("part-heal ", ids))
}
func (p *fakePlatform) SetWALFault(m WALFaultMode) {
	p.walMode = m
	p.actions = append(p.actions, fmt.Sprintf("wal-fault:%d", m))
}
func (p *fakePlatform) SetClockSkew(id string, off time.Duration) {
	if off == 0 {
		p.actions = append(p.actions, "skew-heal:"+id)
	} else {
		p.actions = append(p.actions, "skew:"+id)
	}
}
func (p *fakePlatform) SetDupDelivery(on bool) {
	p.actions = append(p.actions, fmt.Sprintf("dup:%v", on))
}
func (p *fakePlatform) DataPartitionStart(ids []string) {
	p.actions = append(p.actions, fmt.Sprint("dpart-start ", ids))
}
func (p *fakePlatform) DataPartitionHeal(ids []string) {
	p.actions = append(p.actions, fmt.Sprint("dpart-heal ", ids))
}
func (p *fakePlatform) SetCheckpointFault(m CkptFaultMode) {
	p.ckptMode = m
	p.actions = append(p.actions, fmt.Sprintf("ckpt-fault:%d", m))
}
func (p *fakePlatform) CrashCoordinator() []invariant.Violation {
	p.actions = append(p.actions, "coord-crash")
	return nil
}
func (p *fakePlatform) KillLeader() []invariant.Violation { return nil }
func (p *fakePlatform) SplitBrainStart()                  { p.actions = append(p.actions, "split") }
func (p *fakePlatform) SplitBrainHeal() []invariant.Violation {
	p.actions = append(p.actions, "split-heal")
	return nil
}
func (p *fakePlatform) GrayDegradeStart(id string)         { p.actions = append(p.actions, "gray:"+id) }
func (p *fakePlatform) GrayDegradeHeal(id string)          { p.actions = append(p.actions, "gray-heal:"+id) }
func (p *fakePlatform) PartialLossStart(id string)         { p.actions = append(p.actions, "loss:"+id) }
func (p *fakePlatform) PartialLossHeal(id string)          { p.actions = append(p.actions, "loss-heal:"+id) }
func (p *fakePlatform) CrashAggregator(id string)          { p.actions = append(p.actions, "agg-crash:"+id) }
func (p *fakePlatform) RestartAggregator(id string)        { p.actions = append(p.actions, "agg-restart:"+id) }
func (p *fakePlatform) AggPartitionStart(id string)        { p.actions = append(p.actions, "agg-cut:"+id) }
func (p *fakePlatform) AggPartitionHeal(id string)         { p.actions = append(p.actions, "agg-cut-heal:"+id) }
func (p *fakePlatform) ExtraChecks() []invariant.Violation { return nil }
func (p *fakePlatform) SetCheckpointReadRot(on bool) {
	p.actions = append(p.actions, fmt.Sprintf("read-rot:%v", on))
}

func TestEngineExecutesAndHeals(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	plat := newFakePlatform()
	eng := NewEngine(clock, plat)
	sched := Schedule{
		{At: time.Minute, Kind: KindPartition, Nodes: []string{"n1"}, Dur: 2 * time.Minute},
		{At: 2 * time.Minute, Kind: KindWALSyncError, Dur: time.Minute},
		{At: 5 * time.Minute, Kind: KindCoordCrash},
	}
	rep := eng.Execute(sched, time.Minute, 10*time.Minute)
	if rep.Executed[KindPartition] != 1 || rep.Executed[KindCoordCrash] != 1 {
		t.Fatalf("executed = %v", rep.Executed)
	}
	want := []string{"part-start [n1]", "wal-fault:1", "part-heal [n1]", "wal-fault:0", "coord-crash"}
	if !reflect.DeepEqual(plat.actions, want) {
		t.Fatalf("actions = %v, want %v", plat.actions, want)
	}
	if plat.walMode != WALHealthy {
		t.Fatal("WAL fault window never healed")
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("healthy run reported violations: %v", rep.Violations)
	}
	if rep.Audits < 5 {
		t.Fatalf("audits = %d, want fault + periodic + final", rep.Audits)
	}
}

// TestEngineOverlappingPartitions: two partitions sharing a node heal
// that node only when the later one closes; the earlier heal reconnects
// only the node it alone cut.
func TestEngineOverlappingPartitions(t *testing.T) {
	for _, k := range []struct {
		kind   Kind
		prefix string
	}{{KindPartition, "part"}, {KindDataPartition, "dpart"}} {
		t.Run(string(k.kind), func(t *testing.T) {
			clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
			plat := newFakePlatform()
			rep := NewEngine(clock, plat).Execute(Schedule{
				{At: time.Minute, Kind: k.kind, Nodes: []string{"n1", "n2"}, Dur: 4 * time.Minute},
				{At: 2 * time.Minute, Kind: k.kind, Nodes: []string{"n2", "n3"}, Dur: 6 * time.Minute},
			}, 0, time.Minute)
			want := []string{k.prefix + "-start [n1 n2]", k.prefix + "-start [n2 n3]",
				k.prefix + "-heal [n1]", k.prefix + "-heal [n2 n3]"}
			if !reflect.DeepEqual(plat.actions, want) {
				t.Fatalf("actions = %v, want %v", plat.actions, want)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("violations: %v", rep.Violations)
			}
		})
	}
}

// TestEngineOverlappingWindows: for every windowed family, a second
// window opened on a target while the first is open keeps it open —
// nothing heals when the first closes, and the one heal comes when the
// second does.
func TestEngineOverlappingWindows(t *testing.T) {
	for _, fam := range families {
		k := fam.kinds[0]
		t.Run(string(k), func(t *testing.T) {
			first := Fault{At: time.Minute, Kind: k, Node: "n1", Nodes: []string{"n1"},
				Skew: time.Minute, Dur: 4 * time.Minute}
			second := first
			second.At, second.Dur = 2*time.Minute, 6*time.Minute
			run := func(sched Schedule) (mid, end []string) {
				clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
				plat := newFakePlatform()
				clock.AfterFunc(6*time.Minute, func() { mid = append(mid, plat.actions...) })
				NewEngine(clock, plat).Execute(sched, 0, time.Minute)
				return mid, plat.actions
			}
			_, one := run(Schedule{first})
			if len(one) != 2 {
				t.Fatalf("one window: actions = %v, want an open and a heal", one)
			}
			mid, two := run(Schedule{first, second})
			if want := []string{one[0], one[0]}; !reflect.DeepEqual(mid, want) {
				t.Fatalf("after the first window closed: actions = %v, want %v", mid, want)
			}
			if want := []string{one[0], one[0], one[1]}; !reflect.DeepEqual(two, want) {
				t.Fatalf("actions = %v, want %v", two, want)
			}
		})
	}
}

func TestEngineSurfacesViolations(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	plat := newFakePlatform()
	plat.sabotage = true
	eng := NewEngine(clock, plat)
	rep := eng.Execute(Schedule{{At: time.Minute, Kind: KindNodeCrash, Node: "n1"}}, 0, time.Minute)
	if len(rep.Violations) == 0 {
		t.Fatal("sabotaged platform produced no violations")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Rule == "running-node-live" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing running-node-live violation: %v", rep.Violations)
	}
}

func TestFaultFSInjectsRealDamage(t *testing.T) {
	dir := t.TempDir()
	fs := NewFaultFS()
	w, err := wal.OpenWriter(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(lsn uint64) db.Mutation {
		return db.Mutation{LSN: lsn, Type: db.MutNodePut, Node: &db.NodeRecord{ID: "n"}}
	}
	if err := w.Append(mut(1)); err != nil {
		t.Fatal(err)
	}
	fs.SetMode(WALShortWrite)
	if err := w.Append(mut(2)); err == nil {
		t.Fatal("short write acked")
	}
	fs.SetMode(WALSyncError)
	if err := w.Append(mut(3)); err == nil {
		t.Fatal("failed sync acked")
	}
	fs.SetMode(WALHealthy)
	if err := w.Append(mut(4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Injected() < 2 {
		t.Fatalf("injected = %d", fs.Injected())
	}
	recs, stats, err := wal.ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, r := range recs {
		got[r.LSN] = true
	}
	// Acked records 1 and 4 must survive; the torn record 2 must not
	// block later segments (stats counts its tear).
	if !got[1] || !got[4] {
		t.Fatalf("acked records lost: %v (stats %+v)", recs, stats)
	}
	if stats.TornTails == 0 {
		t.Fatal("short write left no torn tail")
	}
}

// TestFaultBlobStoreInjectsRealDamage: damage lands in the stored
// bytes on every other write during a window, the write still reports
// success, and reads return the damaged blob verbatim.
func TestFaultBlobStoreInjectsRealDamage(t *testing.T) {
	fs := NewFaultBlobStore(storage.NewMemStore(0))
	payload := []byte(`{"crc":1234,"payload":{"job_id":"j1"}}`)

	if err := fs.Put("k0", payload); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.Get("k0"); !reflect.DeepEqual(got, payload) {
		t.Fatal("healthy mode damaged a write")
	}

	fs.SetMode(CkptBitFlip)
	if err := fs.Put("k1", payload); err != nil {
		t.Fatal(err) // the disk lies: damaged writes still succeed
	}
	if err := fs.Put("k2", payload); err != nil {
		t.Fatal(err)
	}
	g1, _ := fs.Get("k1")
	g2, _ := fs.Get("k2")
	damaged := 0
	if !reflect.DeepEqual(g1, payload) {
		damaged++
	}
	if !reflect.DeepEqual(g2, payload) {
		damaged++
	}
	if damaged != 1 {
		t.Fatalf("every-other-write cadence broken: %d of 2 writes damaged", damaged)
	}

	fs.SetMode(CkptTruncate)
	_ = fs.Put("k3", payload)
	_ = fs.Put("k4", payload)
	g3, _ := fs.Get("k3")
	g4, _ := fs.Get("k4")
	if len(g3) == len(payload) && len(g4) == len(payload) {
		t.Fatal("truncate window truncated nothing")
	}

	fs.SetMode(CkptHealthy)
	if err := fs.Put("k5", payload); err != nil {
		t.Fatal(err)
	}
	if got, _ := fs.Get("k5"); !reflect.DeepEqual(got, payload) {
		t.Fatal("healed store still damaging writes")
	}
	if fs.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", fs.Injected())
	}
}

// TestVerifyIdempotentDetectsMutation is the unit-level proof behind
// the no-duplicate-side-effects sabotage scenario.
func TestVerifyIdempotentDetectsMutation(t *testing.T) {
	s := db.New(0)
	if vs := VerifyIdempotent(s, "noop", func() {}); len(vs) != 0 {
		t.Fatalf("no-op flagged: %v", vs)
	}
	vs := VerifyIdempotent(s, "mutating", func() {
		s.UpsertNode(db.NodeRecord{ID: "n1"})
	})
	if len(vs) != 1 || vs[0].Rule != "no-duplicate-side-effects" {
		t.Fatalf("vs = %v", vs)
	}
	// A sample takes no LSN: only the observer sees it.
	vs = VerifyIdempotent(s, "sampling", func() {
		s.AppendSample(db.Sample{NodeID: "n1", Metric: "m", Value: 1})
	})
	if len(vs) != 1 || vs[0].Rule != "no-duplicate-side-effects" {
		t.Fatalf("duplicated sample not flagged: %v", vs)
	}
	if vs := VerifyIdempotent(s, "noop again", func() {}); len(vs) != 0 {
		t.Fatalf("observer leaked past its delivery: %v", vs)
	}
}
