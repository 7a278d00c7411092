// Package scheduler implements GPUnion's central allocation logic
// (§3.2, §3.5): pending requests are drained from a priority queue and
// placed onto provider nodes by a pluggable strategy (round-robin for
// fairness, best-fit for memory packing, least-loaded for spreading),
// subject to GPU memory and CUDA compute-capability constraints and
// weighted by provider-reliability predictions.
//
// Unlike a data-center scheduler, node volatility is an input, not an
// error: unreliable providers are degraded (placed last), never excluded
// outright — a flaky GPU is still better than no GPU.
package scheduler

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/monitor"
)

// ErrNoPlacement is returned when no active node can satisfy a request.
var ErrNoPlacement = errors.New("scheduler: no node satisfies the request")

// Request is one pending resource request.
type Request struct {
	// JobID identifies the job being placed.
	JobID string
	// GPUMemMiB is the device-memory requirement.
	GPUMemMiB int64
	// Capability is the minimum CUDA compute capability.
	Capability gpu.ComputeCapability
	// Priority mirrors the queue priority (informational here; the
	// queue itself is ordered by the database).
	Priority int
	// LongRunning hints that the job will hold the device for many
	// hours, making provider reliability matter more.
	LongRunning bool
	// AvoidNodes lists nodes the job must not land on (e.g. the node it
	// is being migrated away from).
	AvoidNodes []string
	// PreferNode, when set, wins ties (used for migrate-back).
	PreferNode string
}

// Placement is a scheduling decision.
type Placement struct {
	JobID    string
	NodeID   string
	DeviceID string
	// Reliability is the predicted reliability of the chosen provider.
	Reliability float64
}

// candidate is one schedulable free device with its node's reliability
// prediction: the entry of the per-cycle candidate set and of the
// per-request feasible list the strategies order. It points into
// records that are immutable for its lifetime (the store's installed
// records, or the caller's slice) — ordering a candidate slice moves
// three words per swap, not whole NodeRecords.
type candidate struct {
	node        *db.NodeRecord
	device      *db.GPUInfo
	reliability float64
}

// The reliability model's two parameters: each departure multiplies a
// node's predicted reliability by departureHalfLife (0..1), and
// uptimeWeight blends in the node's observed uptime ratio.
const (
	departureHalfLife = 0.85
	uptimeWeight      = 0.5
)

// predictExpCap clamps the departure exponent: past it the score has
// long hit the positive floor, and larger exponents only buy denormals.
const predictExpCap = 64

// Predict scores a node in (0, 1]: the probability that the provider
// stays available over the next scheduling horizon, from its history
// (§3.2: "incorporating provider reliability predictions"). New nodes
// with no history get the benefit of the doubt (1.0), matching the
// trust-first campus setting.
// The node's gray-failure health score multiplies straight in: a node
// that heartbeats perfectly but reports XID errors or throttling is
// predicted unreliable exactly as if its history said so, which is how
// degraded nodes stop winning placements without any new plumbing in
// the strategies.
func Predict(n db.NodeRecord, now time.Time) float64 {
	score := 1.0
	if n.Departures > 0 {
		// Closed form of the per-departure decay — O(1) however flaky
		// the provider's history is.
		score = math.Pow(departureHalfLife, math.Min(float64(n.Departures), predictExpCap))
	}
	score *= n.HealthScore()
	if !n.RegisteredAt.IsZero() {
		lifetime := now.Sub(n.RegisteredAt)
		if lifetime > 0 {
			up := n.TotalUptime
			if n.Status == db.NodeActive && !n.LastJoin.IsZero() && now.After(n.LastJoin) {
				up += now.Sub(n.LastJoin)
			}
			ratio := float64(up) / float64(lifetime)
			if ratio > 1 {
				ratio = 1
			}
			// Blend keeps score ≤ the departure-only score.
			score = (1-uptimeWeight)*score + uptimeWeight*ratio*score
		}
	}
	if score <= 0 {
		score = 1e-6
	}
	return score
}

// Strategy orders feasible candidates; the scheduler picks the first.
type Strategy interface {
	// Name identifies the strategy for logging and metrics.
	Name() string
	// Order sorts candidates in decreasing preference, in place.
	Order(req Request, cands []candidate)
}

// RoundRobin cycles through nodes for fairness: each decision starts
// from the node after the previously chosen one (§3.5: "a round-robin
// scheduler which processes pending resource requests from a priority
// queue").
type RoundRobin struct {
	lastNode string
}

// Name implements Strategy.
func (*RoundRobin) Name() string { return "round-robin" }

// Order implements Strategy: node IDs are cycled starting after the last
// placement, with device index order within a node.
func (r *RoundRobin) Order(_ Request, cands []candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		ki := rrKey(cands[i].node.ID, r.lastNode)
		kj := rrKey(cands[j].node.ID, r.lastNode)
		if ki != kj {
			return ki < kj
		}
		if cands[i].node.ID != cands[j].node.ID {
			return cands[i].node.ID < cands[j].node.ID
		}
		return cands[i].device.DeviceID < cands[j].device.DeviceID
	})
}

// rrKey maps node IDs to a cyclic ordering: IDs strictly greater than
// last come first (0), the rest after (1).
func rrKey(id, last string) int {
	if last == "" || id > last {
		return 0
	}
	return 1
}

// note records the chosen node so the next decision rotates onward.
func (r *RoundRobin) note(nodeID string) { r.lastNode = nodeID }

// BestFit picks the smallest device that satisfies the request,
// preserving large-memory GPUs for large jobs.
type BestFit struct{}

// Name implements Strategy.
func (BestFit) Name() string { return "best-fit" }

// Order implements Strategy.
func (BestFit) Order(_ Request, cands []candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].device.MemoryMiB != cands[j].device.MemoryMiB {
			return cands[i].device.MemoryMiB < cands[j].device.MemoryMiB
		}
		if cands[i].node.ID != cands[j].node.ID {
			return cands[i].node.ID < cands[j].node.ID
		}
		return cands[i].device.DeviceID < cands[j].device.DeviceID
	})
}

// LeastLoaded spreads work across providers: nodes with more free
// devices come first (fair distribution across labs).
type LeastLoaded struct{}

// Name implements Strategy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Order implements Strategy.
func (LeastLoaded) Order(_ Request, cands []candidate) {
	free := make(map[string]int)
	for _, c := range cands {
		free[c.node.ID]++
	}
	sort.SliceStable(cands, func(i, j int) bool {
		fi, fj := free[cands[i].node.ID], free[cands[j].node.ID]
		if fi != fj {
			return fi > fj
		}
		if cands[i].node.ID != cands[j].node.ID {
			return cands[i].node.ID < cands[j].node.ID
		}
		return cands[i].device.DeviceID < cands[j].device.DeviceID
	})
}

// Scheduler combines a strategy with the reliability model. Decisions
// are serialized on an internal mutex: strategies carry rotation state
// and the scheduler reuses scratch buffers, so concurrent trySchedule
// storms (heartbeat bursts) queue up instead of corrupting each other.
type Scheduler struct {
	strategy Strategy
	// DegradeBelow pushes providers scoring under this threshold to the
	// back of the preference order for long-running jobs.
	DegradeBelow float64

	mu sync.Mutex
	// scratch is the candidate buffer placeOne reuses across decisions.
	scratch []candidate
	// cache is the candidate set Place last built from its store, and
	// cacheGen / cacheAt the store's node generation and the instant it
	// was built at; cached says one was built at all. A Scheduler
	// serves one store, so the generation alone identifies the set.
	cache    []candidate
	cacheGen uint64
	cacheAt  time.Time
	cached   bool
	// rank is each node's position in the last ID-ordered scan (see
	// orderByID).
	rank map[string]int
	// hits / misses count Place cycles served from the cached set vs
	// cycles that rebuilt it.
	hits, misses uint64
}

// New creates a scheduler. A nil strategy defaults to round-robin.
func New(strategy Strategy) *Scheduler {
	if strategy == nil {
		strategy = &RoundRobin{}
	}
	return &Scheduler{strategy: strategy, DegradeBelow: 0.5}
}

// Schedule places one request against an explicit node set: a batch of
// one. Returns ErrNoPlacement when nothing fits.
func (s *Scheduler) Schedule(req Request, nodes []db.NodeRecord, now time.Time) (Placement, error) {
	res := s.PlaceBatch([]Request{req}, nodes, now)[0]
	return res.Placement, res.Err
}

// BatchResult is one request's outcome within a batch cycle.
type BatchResult struct {
	Placement Placement
	Err       error
	// Latency is this decision's real cost: its filter/order/pick time
	// plus an equal share of the batch's one-time pool build. Callers
	// feed it to the scheduling-latency histogram so batching does not
	// flatten the tail.
	Latency time.Duration
}

// Place drains up to len(reqs) pending requests in one cycle against
// the store's active nodes — the one entry production placement (queue
// drain, emergency batch, migrate-back) comes through. The feasible
// pool (active nodes × free devices, with per-node reliability
// predictions) is built once for the whole batch instead of once per
// request — the §5.3 scheduling-throughput lever — and kept across
// cycles for as long as the store's node generation has not moved, so
// reliability scores keep the `now` of the build that produced them.
// Devices chosen for earlier batch members are reserved so later
// members cannot double-book them. Reservations live only in this
// call: committing a placement (and rolling it back when a launch
// fails) is the caller's job, so a failed member strands nothing.
func (s *Scheduler) Place(reqs []Request, store db.Store, now time.Time) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	poolStart := time.Now()
	// The generation is read before the scan. An install that lands in
	// between bumps it past this stamp, so the next cycle rebuilds;
	// read after the scan, it could stamp a set that misses the install
	// as current.
	gen := store.NodeGeneration()
	if s.cached && gen == s.cacheGen {
		s.hits++
	} else {
		s.misses++
		// The old set's array is reused: placements are copied out of
		// it, so nothing outside s.mu can still be reading it, and a
		// fresh fleet-sized slice per rebuild is mostly work for the GC.
		s.cache = s.buildPool(s.cache[:0], s.orderByID(store.ActiveNodes()), now)
		s.cacheGen, s.cacheAt, s.cached = gen, now, true
	}
	poolShare := time.Since(poolStart) / time.Duration(len(reqs))
	return s.placeBatch(reqs, s.cache, poolShare)
}

// orderByID puts a store scan into node-ID order. The decision does not
// need it — every strategy imposes a total order — but the strategies'
// stable sorts run an order of magnitude faster over ID-ordered input
// than over the scan's map order. Most rebuilds follow a device flip or
// a health fold, which replace records without changing which IDs are
// active, so each record is first dropped into the slot its ID held
// last time; only a changed ID set pays for a sort.
func (s *Scheduler) orderByID(recs []*db.NodeRecord) []*db.NodeRecord {
	if len(recs) == len(s.rank) {
		out, known := make([]*db.NodeRecord, len(recs)), 0
		for _, r := range recs {
			if i, ok := s.rank[r.ID]; ok {
				out[i] = r
				known++
			}
		}
		if known == len(recs) {
			return out
		}
	}
	slices.SortFunc(recs, func(a, b *db.NodeRecord) int { return strings.Compare(a.ID, b.ID) })
	s.rank = make(map[string]int, len(recs))
	for i, r := range recs {
		s.rank[r.ID] = i
	}
	return recs
}

// PlaceBatch is Place over an explicit node slice, built fresh and
// never cached — the reference tests and the scalability sweep compare
// against. nodes must stay untouched until it returns.
func (s *Scheduler) PlaceBatch(reqs []Request, nodes []db.NodeRecord, now time.Time) []BatchResult {
	if len(reqs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	poolStart := time.Now()
	recs := make([]*db.NodeRecord, len(nodes))
	for i := range nodes {
		recs[i] = &nodes[i]
	}
	pool := s.buildPool(nil, recs, now)
	poolShare := time.Since(poolStart) / time.Duration(len(reqs))
	return s.placeBatch(reqs, pool, poolShare)
}

// CacheStats reports how many Place cycles so far were served from the
// cached candidate set and how many rebuilt it.
func (s *Scheduler) CacheStats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// AuditCache checks the cache's one rule — while its stamp equals the
// store's node generation, the cached candidate set equals a fresh
// build — and returns the discrepancies. A cache behind the generation
// has nothing to prove: the next Place rebuilds it. Call it at a
// quiescent point.
func (s *Scheduler) AuditCache(store db.Store) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cached || store.NodeGeneration() != s.cacheGen {
		return nil
	}
	fresh := make(map[deviceKey]candidate, len(s.cache))
	for _, c := range s.buildPool(nil, store.ActiveNodes(), s.cacheAt) {
		fresh[deviceKey{c.node.ID, c.device.DeviceID}] = c
	}
	var probs []string
	for _, c := range s.cache {
		k := deviceKey{c.node.ID, c.device.DeviceID}
		if f, ok := fresh[k]; !ok || *f.device != *c.device || f.reliability != c.reliability {
			probs = append(probs, fmt.Sprintf("cached candidate %s/%s differs from the store at generation %d", k.nodeID, k.deviceID, s.cacheGen))
		}
		delete(fresh, k)
	}
	for k := range fresh {
		probs = append(probs, fmt.Sprintf("candidate %s/%s missing from the cache at generation %d", k.nodeID, k.deviceID, s.cacheGen))
	}
	sort.Strings(probs)
	return probs
}

// placeBatch drains the requests against one pool image; callers hold
// s.mu and have already amortized the pool cost into poolShare.
func (s *Scheduler) placeBatch(reqs []Request, pool []candidate, poolShare time.Duration) []BatchResult {
	reserved := make(map[deviceKey]bool, len(reqs))
	out := make([]BatchResult, len(reqs))
	for i, req := range reqs {
		start := time.Now()
		p, err := s.placeOne(req, pool, reserved)
		if err == nil {
			reserved[deviceKey{p.NodeID, p.DeviceID}] = true
		}
		out[i] = BatchResult{Placement: p, Err: err, Latency: time.Since(start) + poolShare}
	}
	return out
}

// deviceKey identifies one device for in-batch reservations.
type deviceKey struct {
	nodeID   string
	deviceID string
}

// buildPool appends to pool every free device on every active node,
// scoring each node's reliability exactly once — the one place node
// records become candidates.
func (s *Scheduler) buildPool(pool []candidate, nodes []*db.NodeRecord, now time.Time) []candidate {
	for _, n := range nodes {
		if n.Status != db.NodeActive {
			continue
		}
		if n.HealthScore() < monitor.UnhealthyBelow {
			// Degraded past the drain threshold: the node is being
			// emptied predictively, so it must not win new placements
			// (the no-placement-on-unhealthy invariant). Unlike plain
			// unreliability — which only degrades ordering — this is a
			// hard exclusion.
			continue
		}
		rel := Predict(*n, now)
		for j := range n.GPUs {
			if n.GPUs[j].Allocated {
				continue
			}
			pool = append(pool, candidate{node: n, device: &n.GPUs[j], reliability: rel})
		}
	}
	return pool
}

// placeOne filters the pool against one request's constraints, orders
// the survivors and picks the winner. reserved excludes devices already
// claimed by earlier members of the same batch. Callers hold s.mu (the
// candidate buffer is shared scratch).
func (s *Scheduler) placeOne(req Request, pool []candidate, reserved map[deviceKey]bool) (Placement, error) {
	var avoid map[string]bool
	if len(req.AvoidNodes) > 0 {
		avoid = make(map[string]bool, len(req.AvoidNodes))
		for _, id := range req.AvoidNodes {
			avoid[id] = true
		}
	}
	cands := s.scratch[:0]
	for _, e := range pool {
		if avoid[e.node.ID] {
			continue
		}
		if reserved[deviceKey{e.node.ID, e.device.DeviceID}] {
			continue
		}
		if e.device.MemoryMiB < req.GPUMemMiB {
			continue
		}
		cap := gpu.ComputeCapability{Major: e.device.CapabilityMajor, Minor: e.device.CapabilityMinor}
		if !cap.AtLeast(req.Capability) {
			continue
		}
		cands = append(cands, e)
	}
	s.scratch = cands[:0]
	if len(cands) == 0 {
		return Placement{}, fmt.Errorf("%w: job %s (mem %d MiB, cc >= %s)",
			ErrNoPlacement, req.JobID, req.GPUMemMiB, req.Capability)
	}

	s.strategy.Order(req, cands)

	// Migrate-back preference: the job's original node wins outright.
	if req.PreferNode != "" {
		sort.SliceStable(cands, func(i, j int) bool {
			pi := cands[i].node.ID == req.PreferNode
			pj := cands[j].node.ID == req.PreferNode
			return pi && !pj
		})
	}

	// Reliability degradation for long-running jobs: unreliable
	// providers sink to the back, but remain eligible.
	if req.LongRunning {
		sort.SliceStable(cands, func(i, j int) bool {
			di := cands[i].reliability < s.DegradeBelow
			dj := cands[j].reliability < s.DegradeBelow
			return !di && dj
		})
	}

	chosen := cands[0]
	if rr, ok := s.strategy.(*RoundRobin); ok {
		rr.note(chosen.node.ID)
	}
	return Placement{
		JobID:       req.JobID,
		NodeID:      chosen.node.ID,
		DeviceID:    chosen.device.DeviceID,
		Reliability: chosen.reliability,
	}, nil
}
