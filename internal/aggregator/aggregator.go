// Package aggregator is a rack heartbeat relay: it sits between a
// rack's beats and the coordinator, acks steady-state no-op beats
// locally, folds them into compact per-node liveness deltas, and
// forwards one api.AggregatedBeat upstream per flush window to the
// coordinator's POST /v1/aggregated.
//
// It is the fixture of bench/'s beats_relayed workload and nothing
// else: no shipped agent routes through it (the agent sends every beat
// to its coordinator endpoint), and it stays, with cmd/aggregator, only
// for that workload. The benchmark change that drops beats_relayed
// deletes both.
//
// Fold contract (what may be acked locally): a beat with a non-zero
// sequence whose report is empty — no telemetry, no running jobs, no
// health events, not paused — and whose node is not currently flagged
// by the coordinator. The sequence check is what keeps the relay from
// acking a zero-sequence beat the coordinator would refuse. Everything
// else passes through verbatim, synchronously, attached to the pending
// window: health events and state changes are only acked once the
// coordinator has actually folded them, so a relay crash can never
// lose an acknowledged health event. What a crash can lose is the
// current window's folded liveness deltas, which is the same
// bounded-lag contract the coordinator's own coalescing buffer has.
//
// Failure behavior: a failed upstream forward degrades the aggregator
// — every subsequent Ingest returns ErrUnavailable, which tells the
// sender to deliver the same beat to the coordinator directly — until
// a backoff elapses or Heal re-arms it. The per-node BeatSeq is
// preserved end to end, so a delta that loses a race against the same
// node's direct beats is absorbed by the coordinator's sequence guard.
package aggregator

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/simclock"
)

// ErrUnavailable is returned by Ingest while the aggregator is stopped
// or degraded (its upstream forward failed); the sender treats it like
// any transport failure and delivers the beat to the coordinator.
var ErrUnavailable = errors.New("aggregator: unavailable, beat direct")

// Upstream is the aggregator's coordinator-facing transport. The
// in-process deployment is *core.Coordinator itself; the daemon uses
// *core.Client.
type Upstream interface {
	IngestAggregated(api.AggregatedBeat) (api.AggregatedBeatResponse, error)
}

// Config parameterises an Aggregator.
type Config struct {
	// ID names this aggregator (rack/zone scope) on the wire.
	ID string
	// FlushInterval is the roll-up window: folded deltas are forwarded
	// at most this far after the first beat parked (default 5s — a
	// quarter of the default heartbeat interval, matching the
	// coordinator's own coalescing lag).
	FlushInterval time.Duration
	// MaxDeltas bounds the window: a rack bursting past it flushes
	// immediately (default 4096).
	MaxDeltas int
	// RetryAfter is how long a degraded aggregator refuses beats before
	// probing upstream again (default 2 × FlushInterval).
	RetryAfter time.Duration
}

// nodeFlag is per-node relay state fanned back by the coordinator.
type nodeFlag struct {
	// reregister: serve Reregister on the node's next beat.
	reregister bool
	// sendFull: stop folding this node; pass its beats through until a
	// pass-through for it is acked without the flag being re-set.
	sendFull bool
}

// Aggregator is one rack/zone relay instance.
type Aggregator struct {
	cfg   Config
	clock simclock.Clock

	mu sync.Mutex
	up Upstream
	// epoch is the highest coordinator leader epoch observed in batch
	// responses; stamped on forwards and relayed to agents in acks.
	epoch     uint64
	windowSeq uint64
	deltas    map[string]*api.AggBeatDelta
	flags     map[string]nodeFlag
	timer     simclock.Timer
	// degradedAt is non-zero while the aggregator refuses beats after a
	// failed forward; cleared by Heal or the retry backoff.
	degradedAt time.Time
	degraded   bool
	stopped    bool

	// Lifetime counters (observability and the scalability sweep).
	foldedBeats   uint64
	passthrough   uint64
	forwards      uint64
	forwardErrors uint64
}

// New creates an aggregator forwarding to up.
func New(cfg Config, clock simclock.Clock, up Upstream) *Aggregator {
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 5 * time.Second
	}
	if cfg.MaxDeltas <= 0 {
		cfg.MaxDeltas = 4096
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * cfg.FlushInterval
	}
	return &Aggregator{
		cfg:    cfg,
		clock:  clock,
		up:     up,
		deltas: make(map[string]*api.AggBeatDelta),
		flags:  make(map[string]nodeFlag),
	}
}

// Heal clears a degradation without changing the upstream (the
// partition healed; the coordinator is reachable again).
func (g *Aggregator) Heal() {
	g.mu.Lock()
	g.degraded = false
	g.mu.Unlock()
}

// Stop crashes the aggregator: pending window state is lost (exactly
// what a process crash loses) and every subsequent Ingest returns
// ErrUnavailable until Restart.
func (g *Aggregator) Stop() {
	g.mu.Lock()
	g.stopped = true
	g.deltas = make(map[string]*api.AggBeatDelta)
	g.flags = make(map[string]nodeFlag)
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.mu.Unlock()
}

// Restart brings a stopped aggregator back with an empty window, as a
// restarted process would. The durable cursors — the learned leader
// epoch and the window sequence — survive, as a real relay persists
// them: the window sequence must stay strictly monotone across
// restarts or the upstream could not tell a fresh window from a
// replayed one.
func (g *Aggregator) Restart() {
	g.mu.Lock()
	g.stopped = false
	g.degraded = false
	g.deltas = make(map[string]*api.AggBeatDelta)
	g.flags = make(map[string]nodeFlag)
	g.mu.Unlock()
}

// Stats reports lifetime counters: beats folded (acked locally), beats
// passed through, upstream forwards, and failed forwards.
func (g *Aggregator) Stats() (folded, passthrough, forwards, forwardErrors uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.foldedBeats, g.passthrough, g.forwards, g.forwardErrors
}

// Handler returns the relay's REST API: the heartbeat route agents are
// pointed at, and the lifetime counters.
func (g *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req api.HeartbeatRequest
		if !api.DecodeJSON(w, r, &req) {
			return
		}
		resp, err := g.Ingest(req)
		if err != nil {
			// Not acknowledged anywhere: 503 tells the agent to deliver
			// this same beat to a direct coordinator endpoint.
			code := http.StatusServiceUnavailable
			if !errors.Is(err, ErrUnavailable) {
				code = http.StatusBadGateway
			}
			api.WriteError(w, code, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, _ *http.Request) {
		folded, passthrough, forwards, forwardErrors := g.Stats()
		api.WriteJSON(w, http.StatusOK, map[string]uint64{
			"folded_beats":   folded,
			"passthrough":    passthrough,
			"forwards":       forwards,
			"forward_errors": forwardErrors,
		})
	})
	return mux
}

// Ingest accepts one agent heartbeat. Foldable beats are acked
// immediately from the roll-up window; everything else rides a
// synchronous forward of the pending window and returns the
// coordinator's verdict for this node. An error means the beat was NOT
// acknowledged anywhere — the agent must retry against a direct
// coordinator endpoint.
func (g *Aggregator) Ingest(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return api.HeartbeatResponse{}, ErrUnavailable
	}
	now := g.clock.Now()
	if g.degraded {
		if now.Sub(g.degradedAt) < g.cfg.RetryAfter {
			g.mu.Unlock()
			return api.HeartbeatResponse{}, ErrUnavailable
		}
		// Backoff elapsed: probe upstream again with this beat.
		g.degraded = false
	}
	fl := g.flags[req.MachineID]
	if fl.reregister {
		// Relay the coordinator's directive from the previous window.
		fl.reregister = false
		g.flags[req.MachineID] = fl
		epoch := g.epoch
		g.mu.Unlock()
		return api.HeartbeatResponse{Reregister: true, LeaderEpoch: epoch}, nil
	}

	foldable := req.BeatSeq > 0 && !req.Paused && !fl.sendFull &&
		len(req.Telemetry) == 0 && len(req.RunningJobs) == 0 &&
		len(req.HealthEvents) == 0
	if foldable {
		g.foldedBeats++
		if d := g.deltas[req.MachineID]; d != nil {
			if req.BeatSeq > d.BeatSeq {
				d.BeatSeq = req.BeatSeq
				d.At = now
				d.Token = req.Token
			}
			d.Beats++
		} else {
			g.deltas[req.MachineID] = &api.AggBeatDelta{
				NodeID: req.MachineID, Token: req.Token,
				At: now, BeatSeq: req.BeatSeq, Beats: 1,
			}
			if g.timer == nil {
				g.timer = g.clock.AfterFunc(g.cfg.FlushInterval, g.flushTick)
			}
		}
		full := len(g.deltas) >= g.cfg.MaxDeltas
		epoch := g.epoch
		g.mu.Unlock()
		if full {
			// The burst flush is best effort: these beats are already
			// acked, and a failure degrades the aggregator for the
			// following beats.
			_, _ = g.forward(nil)
		}
		return api.HeartbeatResponse{Acknowledged: true, LeaderEpoch: epoch}, nil
	}

	// Pass-through: the beat carries state the coordinator must see, so
	// its ack is the coordinator's ack. It flushes the pending window
	// with it — within a window a pass-through always carries a newer
	// sequence than its node's folded delta, and the coordinator
	// processes pass-throughs first, so the delta is absorbed by the
	// sequence guard rather than regressing anything.
	g.passthrough++
	g.mu.Unlock()
	pass := api.AggPassthrough{At: now, Beat: req}
	resp, err := g.forward(&pass)
	if err != nil {
		return api.HeartbeatResponse{}, fmt.Errorf("aggregator: forward failed: %w", err)
	}
	out := api.HeartbeatResponse{Acknowledged: true, LeaderEpoch: resp.LeaderEpoch}
	for _, id := range resp.Reregister {
		if id == req.MachineID {
			out.Reregister = true
			out.Acknowledged = false
		}
	}
	return out, nil
}

// Flush forwards the pending window now (timer path, tests).
func (g *Aggregator) Flush() error {
	_, err := g.forward(nil)
	return err
}

// flushTick is the armed window timer.
func (g *Aggregator) flushTick() { _ = g.Flush() }

// forward builds one batch from the pending deltas (plus an optional
// pass-through beat), sends it upstream, and applies the response's
// per-node directives. The upstream call runs outside the lock;
// concurrent Ingests park new deltas in a fresh window meanwhile.
func (g *Aggregator) forward(pass *api.AggPassthrough) (api.AggregatedBeatResponse, error) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return api.AggregatedBeatResponse{}, ErrUnavailable
	}
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	if len(g.deltas) == 0 && pass == nil {
		g.mu.Unlock()
		return api.AggregatedBeatResponse{Acknowledged: true, LeaderEpoch: g.epoch}, nil
	}
	g.windowSeq++
	batch := api.AggregatedBeat{
		Envelope:     api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: g.epoch},
		AggregatorID: g.cfg.ID,
		WindowSeq:    g.windowSeq,
	}
	for _, d := range g.deltas {
		batch.Deltas = append(batch.Deltas, *d)
	}
	g.deltas = make(map[string]*api.AggBeatDelta)
	if pass != nil {
		batch.Beats = []api.AggPassthrough{*pass}
	}
	up := g.up
	passAcked := pass != nil
	g.forwards++
	g.mu.Unlock()

	sort.Slice(batch.Deltas, func(i, j int) bool {
		return batch.Deltas[i].NodeID < batch.Deltas[j].NodeID
	})
	resp, err := up.IngestAggregated(batch)

	g.mu.Lock()
	defer g.mu.Unlock()
	if err != nil {
		// Degrade: refuse beats until the backoff elapses so agents use
		// their direct endpoints. The stolen deltas are dropped — the
		// same bounded-lag loss as a crash; the agents behind them
		// re-beat (direct) within one interval.
		g.forwardErrors++
		g.degraded = true
		g.degradedAt = g.clock.Now()
		return api.AggregatedBeatResponse{}, err
	}
	if resp.LeaderEpoch > g.epoch {
		g.epoch = resp.LeaderEpoch
	}
	// A cleanly acked pass-through clears its node's sendFull flag
	// before the response's directives re-assert anything: the
	// coordinator has now seen the node verbatim.
	if passAcked {
		fl := g.flags[pass.Beat.MachineID]
		fl.sendFull = false
		g.flags[pass.Beat.MachineID] = fl
	}
	for _, id := range resp.Reregister {
		if passAcked && id == pass.Beat.MachineID {
			// This node's directive rides the Ingest return value; a flag
			// would demand a second re-registration on the next beat.
			continue
		}
		fl := g.flags[id]
		fl.reregister = true
		g.flags[id] = fl
	}
	for _, id := range resp.SendFull {
		fl := g.flags[id]
		fl.sendFull = true
		g.flags[id] = fl
	}
	return resp, nil
}
