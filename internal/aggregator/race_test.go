package aggregator_test

// Race lane for the aggregation tier: agents hammer their rack relay
// from concurrent goroutines while one goroutine crash-loops the relay
// (Stop/Restart) and another churns coordinator-side membership
// (announced departures), so every seam runs at once on the real
// clock — local folding, synchronous pass-through, ErrUnavailable
// demotion with direct fallback, bounced stale deltas fanning
// Reregister back, and re-registration racing in-flight beats. The
// race detector is the primary assertion; the behavioral ones are that
// no agent wedges, every agent ends with an acknowledged beat on a
// single live session, and the store's beat-delta audit stays clean.
// Runs in -short (CI's `-race -short` lane).

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

func TestAggregatorFallbackRace(t *testing.T) {
	clock := simclock.Real()
	store := db.New(0)
	trace := obs.NewRecorder(clock, 1024)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := core.New(core.Config{HeartbeatInterval: time.Minute}, clock, store, ckpts, trace)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Stop()
	beatAudit, _ := invariant.NewBeatAudit(store)

	agg := aggregator.New(aggregator.Config{
		ID:            "agg-race",
		FlushInterval: time.Millisecond,
		RetryAfter:    time.Millisecond,
	}, clock, coord)
	defer agg.Stop()

	const nodes, beatsPerNode = 4, 200
	agents := make([]*agent.Agent, nodes)
	register := func(ag *agent.Agent) {
		if _, rerr := ag.Join("inproc://"+ag.MachineID(), 1<<40); rerr != nil {
			t.Errorf("register %s: %v", ag.MachineID(), rerr)
		}
	}
	ids := []string{"race-00", "race-01", "race-02", "race-03"}
	for i := range agents {
		agents[i] = agent.New(agent.Config{
			MachineID: ids[i], Kernel: "5.15",
			ProgressTick: time.Hour, TelemetryEvery: 8,
			// Near-zero demotion backoff: the probe-again path itself is
			// part of what must race cleanly.
			AggregatorRetry: time.Millisecond,
		}, clock, []gpu.Spec{gpu.RTX3090}, ckpts, trace)
		defer agents[i].Stop()
		agents[i].SetEndpoints([]agent.Endpoint{{Link: core.NewInProcessClient(coord, agents[i])}})
		agents[i].SetAggregator(agg.ID(), agg)
		register(agents[i])
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	// Crash loop: the relay dies and restarts as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			agg.Stop()
			time.Sleep(200 * time.Microsecond)
			agg.Restart()
			time.Sleep(500 * time.Microsecond)
		}
		agg.Restart()
	}()

	depart := func(ag *agent.Agent) {
		_ = ag.ActiveEndpoint().Link.Depart(api.DepartRequest{MachineID: ag.MachineID(), Token: ag.Token(), Reason: api.DepartTemporary})
	}
	// Membership churn: announced departures race in-flight beats and
	// in-window deltas; the bounced-delta path answers with Reregister.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			depart(agents[i%len(agents)])
			time.Sleep(700 * time.Microsecond)
		}
	}()

	var reregisters atomic.Uint64
	for i := range agents {
		wg.Add(1)
		go func(ag *agent.Agent) {
			defer wg.Done()
			for n := 0; n < beatsPerNode; n++ {
				resp, _, berr := ag.SendBeat(ag.ActiveEndpoint().Link)
				if berr != nil {
					// Both tiers down never happens here (the direct tier is
					// the coordinator's handler in process); anything else is
					// a bug.
					t.Errorf("%s beat %d: %v", ag.MachineID(), n, berr)
					return
				}
				if resp.Reregister {
					reregisters.Add(1)
					register(ag)
				}
				// Pace the loop so beats genuinely interleave with the
				// crash loop, the flush timers and the membership churn.
				time.Sleep(500 * time.Microsecond)
			}
		}(agents[i])
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// The beat goroutines finish on their own; the churn goroutines
	// stop when told. A wedged agent fails the test via the timeout.
	deadline := time.After(30 * time.Second)
	stopChurn := time.After(150 * time.Millisecond)
	for {
		select {
		case <-stopChurn:
			stop.Store(true)
			stopChurn = nil
		case <-done:
			goto settled
		case <-deadline:
			t.Fatal("agents wedged: beat goroutines did not finish")
		}
	}
settled:

	// Directed coda, single-threaded now that the race phase is over: a
	// delta folded before an announced departure must bounce at replay
	// and fan Reregister back to the agent — the agent may never be
	// silently resurrected from a stale window. A pass-through beat
	// (telemetry cadence) reaches the coordinator directly and honestly
	// resurrects the node instead, so on that path the coda departs the
	// node again and retries until a folded window takes the hit.
	victim := agents[0]
	bounced := false
	for attempt := 0; attempt < 40 && !bounced; attempt++ {
		depart(victim)
		for n := 0; n < 12 && !bounced; n++ {
			resp, via, berr := victim.SendBeat(victim.ActiveEndpoint().Link)
			if berr != nil {
				time.Sleep(time.Millisecond)
				continue
			}
			if resp.Reregister {
				bounced = true
				reregisters.Add(1)
				register(victim)
				break
			}
			if !via {
				// Direct fallback resurrected the node; depart and retry.
				break
			}
			// Folded or passed through — give the window time to flush
			// (and, if folded, bounce) before the next beat.
			time.Sleep(2 * time.Millisecond)
		}
	}
	if !bounced {
		t.Error("a folded delta bounced off a departed record never fanned Reregister back")
	}

	// Quiesce on the direct tier (a relay ack is local — the fold may
	// still be in flight): every agent re-registers if needed and lands
	// one final acknowledged beat on its (single) live session.
	for _, ag := range agents {
		ag.SetAggregator("", nil)
	}
	for _, ag := range agents {
		acked := false
		for attempt := 0; attempt < 5 && !acked; attempt++ {
			resp, _, berr := ag.SendBeat(ag.ActiveEndpoint().Link)
			if berr != nil {
				t.Fatalf("%s settling beat: %v", ag.MachineID(), berr)
			}
			if resp.Reregister {
				register(ag)
				continue
			}
			acked = resp.Acknowledged
		}
		if !acked {
			t.Errorf("%s never settled to an acknowledged beat", ag.MachineID())
		}
	}
	for _, n := range store.ListNodes() {
		if n.Status != db.NodeActive {
			t.Errorf("node %s ended %s, want active", n.ID, n.Status)
		}
	}
	for _, v := range beatAudit.Check(store) {
		t.Errorf("beat audit: %s", v.Detail)
	}
	t.Logf("reregisters honored: %d", reregisters.Load())
}
