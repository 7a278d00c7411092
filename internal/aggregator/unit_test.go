package aggregator_test

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
)

// fakeUpstream scripts the coordinator side of the relay: an error to
// inject, per-node directives to fan back, and the batches it saw.
type fakeUpstream struct {
	err        error
	epoch      uint64
	reregister []string
	sendFull   []string
	batches    []api.AggregatedBeat
}

func (u *fakeUpstream) IngestAggregated(b api.AggregatedBeat) (api.AggregatedBeatResponse, error) {
	if u.err != nil {
		return api.AggregatedBeatResponse{}, u.err
	}
	u.batches = append(u.batches, b)
	return api.AggregatedBeatResponse{
		Acknowledged: true, LeaderEpoch: u.epoch,
		Reregister: u.reregister, SendFull: u.sendFull,
	}, nil
}

func idleBeat(node string, seq uint64) api.HeartbeatRequest {
	return api.HeartbeatRequest{MachineID: node, BeatSeq: seq}
}

func TestAggregatorStatsAndDefaults(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{epoch: 1}
	// Zero config: every knob takes its documented default.
	agg := aggregator.New(aggregator.Config{ID: "agg-u"}, clock, up)
	defer agg.Stop()

	for seq := uint64(1); seq <= 3; seq++ {
		if resp, err := agg.Ingest(idleBeat("n1", seq)); err != nil || !resp.Acknowledged {
			t.Fatalf("fold seq %d: resp=%+v err=%v", seq, resp, err)
		}
	}
	// A non-foldable beat passes through and flushes the window with it.
	req := idleBeat("n1", 4)
	req.Paused = true
	if resp, err := agg.Ingest(req); err != nil || !resp.Acknowledged || resp.LeaderEpoch != 1 {
		t.Fatalf("passthrough: resp=%+v err=%v", resp, err)
	}
	folded, passthrough, forwards, forwardErrors := agg.Stats()
	if folded != 3 || passthrough != 1 || forwards != 1 || forwardErrors != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 3/1/1/0", folded, passthrough, forwards, forwardErrors)
	}
	if len(up.batches) != 1 || len(up.batches[0].Deltas) != 1 || up.batches[0].Deltas[0].Beats != 3 {
		t.Fatalf("window flush: %+v", up.batches)
	}
	// The relayed epoch reaches subsequent folded acks.
	if resp, err := agg.Ingest(idleBeat("n1", 5)); err != nil || resp.LeaderEpoch != 1 {
		t.Fatalf("epoch relay: resp=%+v err=%v", resp, err)
	}
}

// TestAggregatorWindowIsOneRequest pins the tier's ingress arithmetic:
// however many no-op beats a window folds, from however many nodes, the
// flush timer sends exactly one upstream request for them, and a
// telemetry-carrying beat passes through as exactly one more.
func TestAggregatorWindowIsOneRequest(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: 30 * time.Second}, clock, up)
	defer agg.Stop()

	nodes := []string{"n1", "n2", "n3", "n4"}
	for seq := uint64(1); seq <= 3; seq++ {
		for _, n := range nodes {
			if resp, err := agg.Ingest(idleBeat(n, seq)); err != nil || !resp.Acknowledged {
				t.Fatalf("fold %s seq %d: resp=%+v err=%v", n, seq, resp, err)
			}
		}
		clock.Advance(5 * time.Second)
	}
	if len(up.batches) != 0 {
		t.Fatalf("window forwarded before its timer: %+v", up.batches)
	}
	clock.Advance(30 * time.Second)
	if len(up.batches) != 1 || len(up.batches[0].Deltas) != len(nodes) || len(up.batches[0].Beats) != 0 {
		t.Fatalf("12 folded beats: upstream saw %+v, want one batch of 4 deltas", up.batches)
	}
	for _, d := range up.batches[0].Deltas {
		if d.Beats != 3 || d.BeatSeq != 3 {
			t.Fatalf("delta %+v, want 3 beats up to seq 3", d)
		}
	}

	req := idleBeat("n1", 4)
	req.Telemetry = []gpu.Telemetry{{DeviceID: "gpu0", Model: "RTX 3090", Utilization: 0.5}}
	if resp, err := agg.Ingest(req); err != nil || !resp.Acknowledged {
		t.Fatalf("telemetry passthrough: resp=%+v err=%v", resp, err)
	}
	if len(up.batches) != 2 || len(up.batches[1].Beats) != 1 || len(up.batches[1].Deltas) != 0 ||
		len(up.batches[1].Beats[0].Beat.Telemetry) != 1 {
		t.Fatalf("telemetry beat: upstream saw %+v, want one more batch carrying the beat", up.batches[1:])
	}
	folded, passthrough, forwards, forwardErrors := agg.Stats()
	if folded != 12 || passthrough != 1 || forwards != 2 || forwardErrors != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 12/1/2/0", folded, passthrough, forwards, forwardErrors)
	}
}

// TestAggregatorDegradeHealSetUpstream: a failed forward degrades the
// relay, and Heal re-arms it against the same upstream. The name
// predates the removal of SetUpstream; Heal and the retry backoff are
// the only ways back now.
func TestAggregatorDegradeHealSetUpstream(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{err: errors.New("partitioned")}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: time.Second, RetryAfter: 10 * time.Second}, clock, up)
	defer agg.Stop()

	req := idleBeat("n1", 1)
	req.Paused = true
	if _, err := agg.Ingest(req); err == nil {
		t.Fatal("passthrough over a dead upstream must fail")
	}
	// Degraded: even foldable beats are refused within the backoff.
	if _, err := agg.Ingest(idleBeat("n1", 2)); !errors.Is(err, aggregator.ErrUnavailable) {
		t.Fatalf("degraded ingest: err=%v, want ErrUnavailable", err)
	}
	if _, _, _, forwardErrors := agg.Stats(); forwardErrors != 1 {
		t.Fatalf("forwardErrors = %d, want 1", forwardErrors)
	}

	// Heal clears the refusal without touching the upstream.
	up.err = nil
	agg.Heal()
	if resp, err := agg.Ingest(idleBeat("n1", 3)); err != nil || !resp.Acknowledged {
		t.Fatalf("post-heal ingest: resp=%+v err=%v", resp, err)
	}
	if err := agg.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if len(up.batches) != 1 {
		t.Fatalf("healed upstream saw %d batches, want 1", len(up.batches))
	}
}

func TestAggregatorBackoffProbe(t *testing.T) {
	start := time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)
	clock := simclock.NewSim(start)
	up := &fakeUpstream{err: errors.New("partitioned")}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: time.Second, RetryAfter: 5 * time.Second}, clock, up)
	defer agg.Stop()

	req := idleBeat("n1", 1)
	req.Paused = true
	if _, err := agg.Ingest(req); err == nil {
		t.Fatal("passthrough over a dead upstream must fail")
	}
	if _, err := agg.Ingest(idleBeat("n1", 2)); !errors.Is(err, aggregator.ErrUnavailable) {
		t.Fatalf("within backoff: err=%v, want ErrUnavailable", err)
	}
	// Past the backoff the next beat probes upstream again.
	up.err = nil
	clock.Advance(6 * time.Second)
	if resp, err := agg.Ingest(idleBeat("n1", 3)); err != nil || !resp.Acknowledged {
		t.Fatalf("probe after backoff: resp=%+v err=%v", resp, err)
	}
}

func TestAggregatorBurstFlushAtMaxDeltas(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: time.Hour, MaxDeltas: 2}, clock, up)
	defer agg.Stop()

	if _, err := agg.Ingest(idleBeat("n1", 1)); err != nil {
		t.Fatal(err)
	}
	if len(up.batches) != 0 {
		t.Fatalf("window flushed early: %+v", up.batches)
	}
	if _, err := agg.Ingest(idleBeat("n2", 1)); err != nil {
		t.Fatal(err)
	}
	if len(up.batches) != 1 || len(up.batches[0].Deltas) != 2 {
		t.Fatalf("burst flush at MaxDeltas: %+v", up.batches)
	}
}

func TestAggregatorReregisterAndSendFullFanBack(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{reregister: []string{"n1"}, sendFull: []string{"n2"}}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: time.Hour}, clock, up)
	defer agg.Stop()

	if _, err := agg.Ingest(idleBeat("n1", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Ingest(idleBeat("n2", 1)); err != nil {
		t.Fatal(err)
	}
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	// n1's next beat carries the coordinator's Reregister verdict.
	resp, err := agg.Ingest(idleBeat("n1", 2))
	if err != nil || !resp.Reregister {
		t.Fatalf("reregister fan-back: resp=%+v err=%v", resp, err)
	}
	// The flag is one-shot: the beat after that folds normally.
	up.reregister = nil
	if resp, err := agg.Ingest(idleBeat("n1", 3)); err != nil || resp.Reregister {
		t.Fatalf("reregister flag must clear: resp=%+v err=%v", resp, err)
	}
	// n2 is flagged sendFull: its idle beats now pass through verbatim
	// (and the clean ack clears the flag).
	up.sendFull = nil
	before := len(up.batches)
	if resp, err := agg.Ingest(idleBeat("n2", 2)); err != nil || !resp.Acknowledged {
		t.Fatalf("sendFull passthrough: resp=%+v err=%v", resp, err)
	}
	if len(up.batches) != before+1 || len(up.batches[before].Beats) != 1 {
		t.Fatalf("sendFull beat did not pass through: %+v", up.batches[before:])
	}
	// Flag cleared: the following beat folds again.
	if _, err := agg.Ingest(idleBeat("n2", 3)); err != nil {
		t.Fatal(err)
	}
	folded, _, _, _ := agg.Stats()
	if folded != 4 {
		t.Fatalf("folded = %d, want 4 (n1×3 + n2's first and last)", folded)
	}
}

func TestAggregatorStopAndRestart(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	up := &fakeUpstream{}
	agg := aggregator.New(aggregator.Config{ID: "agg-u", FlushInterval: time.Hour}, clock, up)

	if _, err := agg.Ingest(idleBeat("n1", 1)); err != nil {
		t.Fatal(err)
	}
	agg.Stop()
	if _, err := agg.Ingest(idleBeat("n1", 2)); !errors.Is(err, aggregator.ErrUnavailable) {
		t.Fatalf("stopped ingest: err=%v, want ErrUnavailable", err)
	}
	if err := agg.Flush(); !errors.Is(err, aggregator.ErrUnavailable) {
		t.Fatalf("stopped flush: err=%v, want ErrUnavailable", err)
	}
	// Restart: the open window died with the crash, but the window
	// sequence stays strictly monotone across it.
	agg.Restart()
	if _, err := agg.Ingest(idleBeat("n1", 3)); err != nil {
		t.Fatal(err)
	}
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(up.batches) != 1 || up.batches[0].Deltas[0].Beats != 1 {
		t.Fatalf("pre-crash window leaked into the restart: %+v", up.batches)
	}
	agg.Stop()
}
