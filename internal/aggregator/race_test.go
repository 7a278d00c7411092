package aggregator_test

// Race lane for the relay on its own real clock: node goroutines ingest
// beats while one goroutine crash-loops the relay (Stop/Restart),
// another forces flushes beside the window's own flush tick, and a
// third churns coordinator-side membership (announced departures), so
// local folding, synchronous pass-through, ErrUnavailable while the
// relay is down, bounced stale deltas fanning Reregister back and
// re-registration racing in-flight windows all run at once. A beat the
// relay refuses is delivered to the coordinator directly, the same
// beat with the same sequence, as any client of the relay must. The
// race detector is the primary assertion; the behavioral ones are that
// no node goroutine wedges, a delta folded before a departure fans
// Reregister back, every node settles to an acknowledged beat on a
// live record, and the store's beat-delta audit stays clean. Runs in
// -short (CI's `-race -short` lane).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/invariant"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
)

// raceNode is one beating identity. Only its own goroutine touches it
// while the race runs; token is the one its first registration issued,
// which the churn goroutine departs it with.
type raceNode struct {
	id, token string
	seq       uint64
}

// idleAgent is the handle the coordinator keeps for each node. No job
// is ever submitted, so nothing calls it; a node without a handle would
// be asked to re-register on every beat.
type idleAgent struct{}

var errNoJobs = errors.New("race node runs no jobs")

func (idleAgent) Launch(api.LaunchRequest) (api.LaunchResponse, error) {
	return api.LaunchResponse{}, errNoJobs
}
func (idleAgent) Kill(api.KillRequest) error { return errNoJobs }
func (idleAgent) Checkpoint(api.CheckpointRequest) (api.CheckpointResponse, error) {
	return api.CheckpointResponse{}, errNoJobs
}

func TestAggregatorFallbackRace(t *testing.T) {
	clock := simclock.Real()
	store := db.New(0)
	coord, err := core.New(core.Config{HeartbeatInterval: time.Minute}, clock, store,
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
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

	envelope := api.Envelope{ProtocolVersion: api.ProtocolVersion}
	register := func(n *raceNode) string {
		resp, rerr := coord.Register(api.RegisterRequest{Envelope: envelope, MachineID: n.id,
			Addr: "inproc://" + n.id, StorageBytes: 1 << 40}, idleAgent{})
		if rerr != nil {
			t.Errorf("register %s: %v", n.id, rerr)
		}
		return resp.Token
	}
	// beat builds the node's next heartbeat: idle (foldable) or, with
	// telemetry, one the relay must pass through.
	beat := func(n *raceNode, telemetry bool) api.HeartbeatRequest {
		n.seq++
		req := api.HeartbeatRequest{Envelope: envelope, MachineID: n.id, Token: n.token, BeatSeq: n.seq}
		if telemetry {
			req.Telemetry = []gpu.Telemetry{{DeviceID: "gpu0", Model: "RTX 3090", TotalMemMiB: 24576}}
		}
		return req
	}
	// deliver sends a beat through the relay and, when the relay
	// refuses it, straight to the coordinator.
	deliver := func(req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
		resp, err := agg.Ingest(req)
		if err != nil {
			resp, err = coord.Heartbeat(req)
		}
		return resp, err
	}

	const beatsPerNode = 200
	nodes := []*raceNode{{id: "race-00"}, {id: "race-01"}, {id: "race-02"}, {id: "race-03"}}
	for _, n := range nodes {
		n.token = register(n)
	}

	var stop atomic.Bool
	var churn sync.WaitGroup
	// Crash loop: the relay dies and restarts as fast as it can.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for !stop.Load() {
			agg.Stop()
			time.Sleep(200 * time.Microsecond)
			agg.Restart()
			time.Sleep(500 * time.Microsecond)
		}
		agg.Restart()
	}()
	// Forced flushes race the window's own tick and the pass-throughs'
	// synchronous forwards for the same pending deltas.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for !stop.Load() {
			_ = agg.Flush()
			time.Sleep(300 * time.Microsecond)
		}
	}()
	// Membership churn: announced departures race in-flight beats and
	// in-window deltas; the bounced-delta path answers with Reregister.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; !stop.Load(); i++ {
			n := nodes[i%len(nodes)]
			_ = coord.Depart(api.DepartRequest{Envelope: envelope, MachineID: n.id, Token: n.token,
				Reason: api.DepartTemporary})
			time.Sleep(700 * time.Microsecond)
		}
	}()

	var beating sync.WaitGroup
	var reregisters atomic.Uint64
	for _, n := range nodes {
		beating.Add(1)
		go func(n *raceNode) {
			defer beating.Done()
			for i := 0; i < beatsPerNode; i++ {
				resp, berr := deliver(beat(n, i%8 == 0))
				if berr != nil {
					t.Errorf("%s beat %d: %v", n.id, i, berr)
					return
				}
				if resp.Reregister {
					reregisters.Add(1)
					register(n)
				}
				// Pace the loop so beats genuinely interleave with the
				// crash loop, the flushes and the membership churn.
				time.Sleep(500 * time.Microsecond)
			}
		}(n)
	}
	done := make(chan struct{})
	go func() {
		beating.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("node goroutines wedged: beats did not finish")
	}
	stop.Store(true)
	churn.Wait()

	// Directed coda on a relay whose window only flushes when told: a
	// delta folded before an announced departure must bounce at replay
	// and fan Reregister back on the node's next beat — the node may
	// never be silently resurrected from a stale window.
	coda := aggregator.New(aggregator.Config{ID: "agg-coda", FlushInterval: time.Hour}, clock, coord)
	defer coda.Stop()
	victim := nodes[0]
	victim.token = register(victim)
	if err := coord.Depart(api.DepartRequest{Envelope: envelope, MachineID: victim.id, Token: victim.token,
		Reason: api.DepartTemporary}); err != nil {
		t.Fatal(err)
	}
	if resp, err := coda.Ingest(beat(victim, false)); err != nil || !resp.Acknowledged {
		t.Fatalf("folding the departed node's idle beat: resp=%+v err=%v", resp, err)
	}
	if err := coda.Flush(); err != nil {
		t.Fatal(err)
	}
	if resp, err := coda.Ingest(beat(victim, false)); err != nil || !resp.Reregister {
		t.Fatalf("beat after a bounced delta: resp=%+v err=%v, want Reregister", resp, err)
	}

	// Quiesce on the coordinator: the raced relay is stopped (a flush
	// it had in flight carries only sequences below what follows), and
	// every node re-registers if needed and lands one acknowledged beat.
	agg.Stop()
	for _, n := range nodes {
		acked := false
		for attempt := 0; attempt < 5 && !acked; attempt++ {
			resp, berr := coord.Heartbeat(beat(n, false))
			if berr != nil {
				t.Fatalf("%s settling beat: %v", n.id, berr)
			}
			if resp.Reregister {
				n.token = register(n)
				continue
			}
			acked = resp.Acknowledged
		}
		if !acked {
			t.Errorf("%s never settled to an acknowledged beat", n.id)
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
