package sim

// The aggregation-equivalence property battery: a campus whose beats
// flow through rack aggregators must end in a store byte-identical to
// the same campus beating the coordinator directly. Both arms replay
// one seeded schedule of beats, pauses, health bursts and churn
// (announced departures plus re-registrations) on their own simulated
// clocks; between rounds each arm quiesces — every aggregator flush
// window and coordinator coalescing tick drains — so the comparison
// pins down the tier's semantics, not its (audited, bounded) lag.
// Timing races between the tiers are the chaos schedules' domain
// (TestChaosAggCrash / TestChaosAggPartition), where the equivalence
// audit runs with its lag tolerance instead.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

// equivRound is one round of the pre-generated schedule. Churn and
// injections apply at the round start (a quiescent point); then every
// present node beats once; then the clock advances one heartbeat
// interval, draining all windows.
type equivRound struct {
	depart []int
	rejoin []int
	pause  []int // toggles
	health map[int][]gpu.HealthEvent
}

// genEquivRounds draws a schedule. The generator tracks the departed
// set so the ops are always applicable, and leaves the last rounds
// churn-free so every node ends the run as a live, beating member
// (otherwise the arms would only be comparable on the survivor set).
func genEquivRounds(seed int64, nodes, rounds int) []equivRound {
	rng := rand.New(rand.NewSource(seed))
	departed := make([]bool, nodes)
	out := make([]equivRound, rounds)
	kinds := []gpu.HealthEventKind{gpu.HealthThermal, gpu.HealthXIDRecoverable, gpu.HealthPower, gpu.HealthSlowdown}
	for r := range out {
		op := equivRound{health: map[int][]gpu.HealthEvent{}}
		settling := r >= rounds-3
		for i := 0; i < nodes; i++ {
			if departed[i] {
				if settling || rng.Float64() < 0.35 {
					op.rejoin = append(op.rejoin, i)
					departed[i] = false
				}
				continue
			}
			if !settling && rng.Float64() < 0.06 {
				op.depart = append(op.depart, i)
				departed[i] = true
				continue
			}
			if !settling && rng.Float64() < 0.10 {
				op.pause = append(op.pause, i)
			}
			if rng.Float64() < 0.15 {
				n := 1 + rng.Intn(2)
				evs := make([]gpu.HealthEvent, 0, n)
				for e := 0; e < n; e++ {
					k := kinds[rng.Intn(len(kinds))]
					evs = append(evs, gpu.HealthEvent{
						Kind: k, Severity: gpu.SeverityWarn,
						Value:   float64(rng.Intn(100)) / 100,
						Message: fmt.Sprintf("equiv r%d", r),
					})
				}
				op.health[i] = evs
			}
		}
		out[r] = op
	}
	return out
}

// equivArm is one side of the comparison: a coordinator, its agents,
// and (on the aggregated side) the rack relays plus the equivalence
// audit, all on a private simulated clock.
type equivArm struct {
	clock     *simclock.Sim
	store     db.Store
	coord     *core.Coordinator
	agents    []*agent.Agent
	health    []*gpu.FakeHealthSource
	aggs      []*aggregator.Aggregator
	aggAudit  *invariant.AggAudit
	beatAudit *invariant.BeatAudit
	paused    []bool
	departed  []bool
}

// equivBeatTap reports every acknowledged beat to the aggregation
// audit, on the aggregator tier and the direct tier alike. Both tiers
// stamp the ack with the same simulated instant, so the tap reads it
// off the arm's clock.
type equivBeatTap struct {
	inner agent.BeatSender
	arm   *equivArm
}

func (s equivBeatTap) Heartbeat(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	resp, err := s.inner.Heartbeat(req)
	if err == nil && resp.Acknowledged && !resp.Reregister && s.arm.aggAudit != nil {
		n := len(req.HealthEvents)
		if n > api.MaxHealthEventsPerBeat {
			n = api.MaxHealthEventsPerBeat
		}
		s.arm.aggAudit.ObserveAck(req.MachineID, s.arm.clock.Now(), n)
	}
	return resp, err
}

// equivHooks is the sabotage battery's seam on the aggregator→
// coordinator link: batch tampers an outgoing window before the wire
// taps see it (a corrupt relay), resp tampers the coordinator's answer
// before the relay and the audit learn from it (an upstream epoch bump
// without running a full replicated failover).
type equivHooks struct {
	batch func(*api.AggregatedBeat)
	resp  func(*api.AggregatedBeatResponse)
}

// equivUpstream is the aggregator→coordinator link with the audit's
// wire taps and the optional saboteur hooks (nil means honest relay).
type equivUpstream struct {
	arm   *equivArm
	id    string
	hooks *equivHooks
}

func (u equivUpstream) IngestAggregated(b api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	if u.hooks != nil && u.hooks.batch != nil {
		u.hooks.batch(&b)
	}
	if a := u.arm.aggAudit; a != nil {
		a.ObserveForward(u.id, b.LeaderEpoch, b.WindowSeq)
	}
	resp, err := u.arm.coord.IngestAggregated(b)
	if err != nil {
		return resp, err
	}
	if u.hooks != nil && u.hooks.resp != nil {
		u.hooks.resp(&resp)
	}
	if u.arm.aggAudit != nil {
		u.arm.aggAudit.ObserveAggEpoch(u.id, resp.LeaderEpoch)
	}
	return resp, err
}

// equivSecret pins the token authority: with the same secret and the
// same clocks, both arms mint byte-identical tokens.
var equivSecret = []byte("aggregation-equivalence-battery!")

// newEquivArm builds one arm with nodes agents, each carrying the given
// devices (default: one RTX 3090). aggCount 0 is the direct arm;
// otherwise agents are assigned round-robin across aggCount relays and
// the aggregation audit attaches. hooks, when non-nil, sabotages the
// upstream link.
func newEquivArm(t *testing.T, nodes, aggCount int, hooks *equivHooks, devices ...gpu.Spec) *equivArm {
	t.Helper()
	if len(devices) == 0 {
		devices = []gpu.Spec{gpu.RTX3090}
	}
	arm := &equivArm{
		clock:    simclock.NewSim(Epoch),
		store:    db.New(0),
		paused:   make([]bool, nodes),
		departed: make([]bool, nodes),
	}
	bus := eventbus.New(1024)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := core.New(core.Config{
		HeartbeatInterval: time.Minute,
		AuthSecret:        equivSecret,
	}, arm.clock, arm.store, ckpts, bus)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	arm.coord = coord
	arm.beatAudit, _ = invariant.NewBeatAudit(arm.store)
	if aggCount > 0 {
		arm.aggAudit, _ = invariant.NewAggAudit(arm.store)
		for i := 0; i < aggCount; i++ {
			id := fmt.Sprintf("agg-%02d", i)
			arm.aggs = append(arm.aggs, aggregator.New(aggregator.Config{
				ID: id, FlushInterval: 30 * time.Second,
			}, arm.clock, equivUpstream{arm: arm, id: id, hooks: hooks}))
		}
	}
	for i := 0; i < nodes; i++ {
		rt := container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(devices...), 0, 0)
		src := gpu.NewFakeHealthSource()
		arm.health = append(arm.health, src)
		ag := agent.New(agent.Config{
			MachineID: fmt.Sprintf("eq-%02d", i), Kernel: "5.15",
			ProgressTick: 30 * time.Second, Health: src,
			// Fleet telemetry cadence: samples every 4th beat. Identical
			// in both arms — the knob changes what agents send, and the
			// battery proves the tiers agree on whatever that is.
			TelemetryEvery: 4,
		}, arm.clock, rt, ckpts, bus)
		ag.SetEndpoints([]agent.Endpoint{localEndpoint("coordinator", coord, ag)})
		if len(arm.aggs) > 0 {
			g := arm.aggs[i%len(arm.aggs)]
			ag.SetAggregator(g.ID(), equivBeatTap{inner: g, arm: arm})
		}
		arm.agents = append(arm.agents, ag)
		arm.register(t, i)
	}
	return arm
}

func (arm *equivArm) register(t *testing.T, i int) {
	t.Helper()
	ag := arm.agents[i]
	resp, err := arm.coord.Register(ag.RegisterRequest("inproc://"+ag.MachineID(), 1<<40), core.LocalAgent{A: ag})
	if err != nil {
		t.Fatalf("register %s: %v", ag.MachineID(), err)
	}
	ag.SetToken(resp.Token)
	ag.ObserveEpoch(resp.LeaderEpoch)
	if arm.aggAudit != nil {
		arm.aggAudit.ObserveRegister(ag.MachineID(), arm.clock.Now())
	}
}

// play drives the schedule: ops, beats, then a full-interval advance
// that drains every window before the next round's churn.
func (arm *equivArm) play(t *testing.T, rounds []equivRound) {
	t.Helper()
	direct := equivBeatTap{inner: arm.coord, arm: arm}
	for r, op := range rounds {
		for _, i := range op.depart {
			arm.agents[i].Depart(api.DepartTemporary, 0)
			arm.departed[i], arm.paused[i] = true, false
		}
		for _, i := range op.rejoin {
			arm.agents[i].Return()
			arm.register(t, i)
			arm.departed[i] = false
		}
		for _, i := range op.pause {
			if arm.paused[i] {
				arm.agents[i].Resume()
			} else {
				arm.agents[i].Pause()
			}
			arm.paused[i] = !arm.paused[i]
		}
		for i, evs := range op.health {
			if arm.departed[i] {
				continue
			}
			now := arm.clock.Now()
			stamped := make([]gpu.HealthEvent, len(evs))
			copy(stamped, evs)
			for e := range stamped {
				stamped[e].At = now
			}
			arm.health[i].Inject(stamped...)
		}
		for i, ag := range arm.agents {
			if arm.departed[i] {
				continue
			}
			resp, _, err := ag.SendBeat(direct)
			if err != nil {
				t.Fatalf("round %d node %d beat: %v", r, i, err)
			}
			if resp.Reregister {
				t.Fatalf("round %d node %d: unexpected reregister on the quiesced schedule", r, i)
			}
		}
		arm.clock.Advance(time.Minute)
	}
	// Final quiesce: one more interval covers any window armed by the
	// last round's beats.
	arm.clock.Advance(time.Minute)
}

// exportNormalized strips the fields that legitimately differ between
// arms: the LSN watermark counts mutations, and batching deltas is the
// tier's entire point — fewer, fatter commits.
func (arm *equivArm) exportNormalized() []byte {
	st := arm.store.ExportState()
	st.Watermark = 0
	b, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return b
}

func (arm *equivArm) foldedBeats() uint64 {
	var total uint64
	for _, g := range arm.aggs {
		folded, _, _, _ := g.Stats()
		total += folded
	}
	return total
}

func (arm *equivArm) stop() {
	for _, g := range arm.aggs {
		g.Stop()
	}
	arm.coord.Stop()
}

// TestAggregationEquivalenceProperty replays seeded schedules of
// beats, health bursts, pauses and churn through 1–8 rack aggregators
// and through the direct path, and requires byte-identical exported
// state — nodes (liveness timestamps and health scores), jobs,
// allocations and telemetry samples — plus clean beat-delta and
// aggregation audits on every run.
func TestAggregationEquivalenceProperty(t *testing.T) {
	const nodes, roundCount = 12, 36
	type row struct {
		name     string
		aggCount int
		seed     int64
		devices  []gpu.Spec
	}
	var rows []row
	for aggCount := 1; aggCount <= 8; aggCount++ {
		seed := int64(1000 + aggCount)
		rows = append(rows, row{fmt.Sprintf("aggs=%d/seed=%d", aggCount, seed), aggCount, seed, []gpu.Spec{gpu.RTX3090}})
	}
	// Two devices per node: a telemetry beat's four samples commit as
	// one group, relayed as a pass-through and direct alike.
	rows = append(rows, row{"aggs=2/seed=1009/gpus=2", 2, 1009, []gpu.Spec{gpu.RTX3090, gpu.RTX3090}})
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			rounds := genEquivRounds(rw.seed, nodes, roundCount)

			direct := newEquivArm(t, nodes, 0, nil, rw.devices...)
			defer direct.stop()
			direct.play(t, rounds)

			agged := newEquivArm(t, nodes, rw.aggCount, nil, rw.devices...)
			defer agged.stop()
			agged.play(t, rounds)

			if folded := agged.foldedBeats(); folded == 0 {
				t.Fatal("aggregated arm folded no beats — the property ran without exercising the tier")
			}
			// Every telemetry beat stored two points per device.
			if got, per := len(agged.store.ExportState().Samples), 2*len(rw.devices); got == 0 || got%per != 0 {
				t.Fatalf("aggregated arm holds %d samples, want a positive multiple of %d", got, per)
			}

			want, got := direct.exportNormalized(), agged.exportNormalized()
			if string(want) != string(got) {
				for _, v := range invariant.CheckEquivalence(direct.store.ExportState(), agged.store.ExportState()) {
					t.Errorf("table diff: %s", v.Detail)
				}
				t.Fatalf("exported state diverged: direct %d bytes, aggregated %d bytes", len(want), len(got))
			}
			for _, v := range direct.beatAudit.Check(direct.store) {
				t.Errorf("direct arm beat audit: %s", v.Detail)
			}
			for _, v := range agged.beatAudit.Check(agged.store) {
				t.Errorf("aggregated arm beat audit: %s", v.Detail)
			}
			// Strict: at a quiescent point the tier owes zero lag.
			for _, v := range agged.aggAudit.Check(agged.store, 0) {
				t.Errorf("aggregation audit: %s", v.Detail)
			}
		})
	}
}
