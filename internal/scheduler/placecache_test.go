package scheduler

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
)

// cacheStore seeds a sharded store with n single-GPU nodes.
func cacheStore(n int) *db.DB {
	store := db.New(0)
	for i := 0; i < n; i++ {
		store.UpsertNode(db.NodeRecord{
			ID: fmt.Sprintf("n%02d", i), Status: db.NodeActive,
			GPUs:         []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
			RegisteredAt: now.Add(-24 * time.Hour),
		})
	}
	return store
}

// scanCounter counts the candidate scans Place makes through it.
type scanCounter struct {
	db.Store
	scans int
}

func (c *scanCounter) ActiveNodes() []*db.NodeRecord {
	c.scans++
	return c.Store.ActiveNodes()
}

func cacheReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{JobID: fmt.Sprintf("j%d", i), GPUMemMiB: 8192,
			Capability: gpu.ComputeCapability{Major: 7, Minor: 0}}
	}
	return reqs
}

// samePlacements fails unless the cached cycle decided exactly what a
// fresh build over the store's current records decides.
func samePlacements(t *testing.T, what string, got, want []BatchResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Placement != want[i].Placement {
			t.Fatalf("%s member %d: cached %+v (%v) vs fresh %+v (%v)", what, i,
				got[i].Placement, got[i].Err, want[i].Placement, want[i].Err)
		}
	}
}

// TestPlaceCacheHitOnUnmovedGeneration: while the store's node
// generation stands still, a cycle is served from the cached set — the
// hit counter moves and the store is not scanned.
func TestPlaceCacheHitOnUnmovedGeneration(t *testing.T) {
	store := &scanCounter{Store: cacheStore(4)}
	s := New(nil)

	s.Place(cacheReqs(2), store, now)
	if hits, misses := s.CacheStats(); hits != 0 || misses != 1 || store.scans != 1 {
		t.Fatalf("first cycle: %d hits, %d misses, %d scans; want one miss, one scan", hits, misses, store.scans)
	}
	s.Place(cacheReqs(2), store, now)
	if hits, misses := s.CacheStats(); hits != 1 || misses != 1 || store.scans != 1 {
		t.Fatalf("second cycle: %d hits, %d misses, %d scans; want one hit, no new scan", hits, misses, store.scans)
	}
}

// TestPlaceCacheRebuildsAfterBump: every store operation that installs
// a node record scheduling can see moves the generation, so the next
// cycle rebuilds and decides what a fresh build decides. ImportState
// and Apply are the recovery and follower paths: a store they built
// needs no reset call.
func TestPlaceCacheRebuildsAfterBump(t *testing.T) {
	extra := db.NodeRecord{
		ID: "n99", Status: db.NodeActive,
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	}
	for _, tc := range []struct {
		name string
		bump func(store *db.DB)
	}{
		{"UpsertNode", func(store *db.DB) { store.UpsertNode(extra) }},
		{"UpdateNode", func(store *db.DB) {
			_ = store.UpdateNode("n00", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
		}},
		{"RecordHealth", func(store *db.DB) {
			// Below the drain threshold: n00 leaves the candidate set.
			store.RecordHealth("n00", now, nil, func(float64, time.Time) float64 { return 0.1 })
		}},
		{"ApplyNodePut", func(store *db.DB) {
			_ = store.Apply(db.Mutation{LSN: store.CurrentLSN() + 1, Type: db.MutNodePut, Node: &extra})
		}},
		{"ApplyNodeHealth", func(store *db.DB) {
			_ = store.Apply(db.Mutation{LSN: store.CurrentLSN() + 1, Type: db.MutNodeHealth,
				Health: &db.HealthDelta{NodeID: "n00", Score: 0.1, At: now}})
		}},
		{"ImportState", func(store *db.DB) {
			st := store.ExportState()
			st.Nodes = st.Nodes[1:] // n00 is gone from the image
			store.ImportState(st)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := cacheStore(3)
			s := New(BestFit{})
			s.Place(cacheReqs(1), store, now)

			gen := store.NodeGeneration()
			tc.bump(store)
			if store.NodeGeneration() == gen {
				t.Fatal("node generation did not move")
			}
			got := s.Place(cacheReqs(4), store, now)
			if _, misses := s.CacheStats(); misses != 2 {
				t.Fatalf("%d misses after the bump, want a second one", misses)
			}
			want := New(BestFit{}).PlaceBatch(cacheReqs(4), store.ListNodes(), now)
			samePlacements(t, tc.name, got, want)
			if probs := s.AuditCache(store); len(probs) != 0 {
				t.Fatalf("audit after rebuild: %v", probs)
			}
		})
	}
}

// TestPlaceCacheSurvivesHeartbeatAdvance pins "scheduling never reads
// LastHeartbeat": a coalesced beat commit (live or replayed) replaces
// node records without moving the generation, the cached set keeps
// serving, and it still decides what a fresh build decides.
func TestPlaceCacheSurvivesHeartbeatAdvance(t *testing.T) {
	store := cacheStore(4)
	s := New(BestFit{})
	s.Place(cacheReqs(1), store, now)

	gen := store.NodeGeneration()
	if n := store.TouchNodes([]db.BeatDelta{{NodeID: "n01", At: now.Add(time.Second)}}); n != 1 {
		t.Fatalf("TouchNodes applied %d beats", n)
	}
	_ = store.Apply(db.Mutation{LSN: store.CurrentLSN() + 1, Type: db.MutBeat,
		Beats: []db.BeatDelta{{NodeID: "n02", At: now.Add(2 * time.Second)}}})
	if n, _ := store.GetNode("n02"); !n.LastHeartbeat.Equal(now.Add(2 * time.Second)) {
		t.Fatal("replayed beat did not land")
	}
	if store.NodeGeneration() != gen {
		t.Fatal("a heartbeat-only advance moved the node generation")
	}

	got := s.Place(cacheReqs(3), store, now)
	if hits, misses := s.CacheStats(); hits != 1 || misses != 1 {
		t.Fatalf("%d hits, %d misses; want the beat cycle served from the cache", hits, misses)
	}
	want := New(BestFit{}).PlaceBatch(cacheReqs(3), store.ListNodes(), now)
	samePlacements(t, "after beats", got, want)
	if probs := s.AuditCache(store); len(probs) != 0 {
		t.Fatalf("audit after beats: %v", probs)
	}
}

// TestPlaceMatchesPlaceBatch: over a seeded random sequence of node
// mutations — registrations, device flips, status changes, health
// folds, beats — the cached entry must decide exactly what a fresh
// PlaceBatch over the store's records decides, for every strategy.
func TestPlaceMatchesPlaceBatch(t *testing.T) {
	strategies := map[string]func() Strategy{
		"round-robin":  func() Strategy { return &RoundRobin{} },
		"best-fit":     func() Strategy { return BestFit{} },
		"least-loaded": func() Strategy { return LeastLoaded{} },
	}
	for name, strat := range strategies {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			store := db.New(0)
			for i := 0; i < 12; i++ {
				store.UpsertNode(randomNode(rng, i))
			}
			cached := New(strat())
			fresh := New(strat())
			for step := 0; step < 200; step++ {
				id := fmt.Sprintf("n%02d", rng.Intn(14))
				at := now.Add(time.Duration(step) * time.Second)
				switch rng.Intn(5) {
				case 0:
					store.UpsertNode(randomNode(rng, rng.Intn(14)))
				case 1:
					_ = store.UpdateNode(id, func(n *db.NodeRecord) {
						g := &n.GPUs[rng.Intn(len(n.GPUs))]
						g.Allocated = !g.Allocated
					})
				case 2:
					_ = store.UpdateNode(id, func(n *db.NodeRecord) {
						n.Status = []db.NodeStatus{db.NodeActive, db.NodeActive, db.NodePaused, db.NodeDeparted}[rng.Intn(4)]
					})
				case 3:
					score := 0.2 + 0.8*rng.Float64()
					store.RecordHealth(id, at, nil, func(float64, time.Time) float64 { return score })
				case 4:
					store.TouchNodes([]db.BeatDelta{{NodeID: id, At: at}})
				}
				// One clock for both sides: reliability keeps the build's
				// `now`, and a beat-only step reuses the previous build.
				reqs := cacheReqs(1 + rng.Intn(4))
				reqs[0].LongRunning = true
				got := cached.Place(reqs, store, now)
				want := fresh.PlaceBatch(reqs, store.ListNodes(), now)
				samePlacements(t, fmt.Sprintf("%s step %d", name, step), got, want)
			}
			if hits, misses := cached.CacheStats(); hits == 0 || misses == 0 {
				t.Fatalf("sequence exercised only one side of the cache: %d hits, %d misses", hits, misses)
			}
		})
	}
}

func randomNode(rng *rand.Rand, i int) db.NodeRecord {
	n := db.NodeRecord{
		ID: fmt.Sprintf("n%02d", i), Status: db.NodeActive,
		RegisteredAt: now.Add(-24 * time.Hour), Departures: rng.Intn(6),
	}
	for g := 0; g <= rng.Intn(3); g++ {
		n.GPUs = append(n.GPUs, db.GPUInfo{
			DeviceID: fmt.Sprintf("gpu%d", g), MemoryMiB: int64(8192 << rng.Intn(3)),
			CapabilityMajor: 7 + rng.Intn(2), CapabilityMinor: 5,
		})
	}
	return n
}

// lateInstallStore lands one device flip after Place's scan has read
// the records but before Place returns — the interleaving the
// generation-before-scan order exists for.
type lateInstallStore struct {
	db.Store
	armed bool
}

func (l *lateInstallStore) ActiveNodes() []*db.NodeRecord {
	recs := l.Store.ActiveNodes()
	if l.armed {
		l.armed = false
		_ = l.Store.UpdateNode("n00", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
	}
	return recs
}

// TestPlaceRebuildsAfterInstallDuringScan: an install that the scan
// missed must leave the cache stamped behind the store, so the next
// cycle rebuilds — never a stale set under a current stamp.
func TestPlaceRebuildsAfterInstallDuringScan(t *testing.T) {
	store := &lateInstallStore{Store: cacheStore(2), armed: true}
	s := New(nil)

	first := s.Place(cacheReqs(1), store, now)
	if first[0].Placement.NodeID != "n00" {
		t.Fatalf("scan saw the late install: %+v", first[0].Placement)
	}
	second := s.Place(cacheReqs(2), store, now)
	if _, misses := s.CacheStats(); misses != 2 {
		t.Fatalf("%d misses, want the second cycle to rebuild", misses)
	}
	if second[0].Placement.NodeID != "n01" || second[1].Err == nil {
		t.Fatalf("second cycle placed onto the allocated device: %+v", second)
	}
}

// TestPlaceConcurrentWithNodeMutations runs Place against concurrent
// node installs and beats (run it under -race): whatever interleaving
// happened, once the writers stop the cache is either behind the
// generation or equal to a fresh build, and the next cycle decides
// what a fresh build decides.
func TestPlaceConcurrentWithNodeMutations(t *testing.T) {
	store := cacheStore(16)
	s := New(BestFit{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 300; i++ {
				id := fmt.Sprintf("n%02d", rng.Intn(16))
				if i%3 == 0 {
					store.TouchNodes([]db.BeatDelta{{NodeID: id, At: now.Add(time.Duration(i) * time.Millisecond)}})
					continue
				}
				_ = store.UpdateNode(id, func(n *db.NodeRecord) { n.GPUs[0].Allocated = !n.GPUs[0].Allocated })
			}
		}(w)
	}
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				s.Place(cacheReqs(3), store, now)
			}
		}()
	}
	wg.Wait()

	if probs := s.AuditCache(store); len(probs) != 0 {
		t.Fatalf("stale set under a current stamp: %v", probs)
	}
	got := s.Place(cacheReqs(5), store, now)
	want := New(BestFit{}).PlaceBatch(cacheReqs(5), store.ListNodes(), now)
	samePlacements(t, "after the storm", got, want)
}

// frozenGenStore never reports a generation change — the sabotage the
// scheduler-pool-consistent audit exists to catch.
type frozenGenStore struct{ db.Store }

func (frozenGenStore) NodeGeneration() uint64 { return 1 }

// TestAuditCacheDetectsUnannouncedInstall: if an install does not move
// the generation, the cached set goes stale under a matching stamp and
// AuditCache must say so; behind the generation it has nothing to say.
func TestAuditCacheDetectsUnannouncedInstall(t *testing.T) {
	inner := cacheStore(3)
	store := frozenGenStore{inner}
	s := New(nil)
	s.Place(cacheReqs(1), store, now)
	if probs := s.AuditCache(store); len(probs) != 0 {
		t.Fatalf("fresh cache audits dirty: %v", probs)
	}
	_ = inner.UpdateNode("n01", func(n *db.NodeRecord) { n.GPUs[0].Allocated = true })
	if probs := s.AuditCache(store); len(probs) == 0 {
		t.Fatal("unannounced device flip went undetected")
	}
	if probs := s.AuditCache(inner); len(probs) != 0 {
		t.Fatalf("cache behind the generation must not be audited: %v", probs)
	}
}
