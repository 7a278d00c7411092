package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/auth"
	"gpunion/internal/db"
	"gpunion/internal/heartbeat"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Shares of the window a -trace 1 run gives to each of its three passes:
// the untraced child-process run the scraped layer metrics come from,
// the traced in-process run, and the same composition with decorators
// off, which prices the tracing itself.
func scrapedShare(w time.Duration) time.Duration { return w * 6 / 10 }
func tracedShare(w time.Duration) time.Duration  { return w * 4 / 10 }
func plainShare(w time.Duration) time.Duration   { return w * 3 / 10 }

// spanStats is what the analysis keeps of a span name.
type spanStats struct {
	calls  int
	total  time.Duration // sum of durations
	self   time.Duration // durations minus the time covered by child spans
	inReq  time.Duration // self time spent inside request trees
	reqCnt int           // calls inside request trees
}

// analyse folds the spans that began at or after since into per-name
// totals. A span's self time is its duration minus its children's.
func analyse(spans []span, since int64) map[string]*spanStats {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	stats := make(map[string]*spanStats)
	for i, s := range spans {
		if s.End == 0 || s.Start < since {
			continue // still open when the window closed, or before it opened
		}
		st := stats[s.Name]
		if st == nil {
			st = &spanStats{}
			stats[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.calls++
		st.total += d
		st.self += d - child[i]
		if s.Req > 0 {
			st.inReq += d - child[i]
			st.reqCnt++
		}
	}
	return stats
}

// replayed is the cost of the pure layer functions, timed alone on the
// requests the traced window actually carried.
type replayed struct {
	decodeUS, encodeUS, verifyUS, monitorUS float64 // per client request
	relayDecodeUS, relayEncodeUS            float64 // relay's side of a relayed beat
	aggDecodeUS, aggEncodeUS                float64 // AGB1 codec, per client request
}

// timeEach runs f over items and returns its mean cost in microseconds.
// Three passes; the fastest pass's mean is kept, the usual defence
// against a collection or a scheduler hiccup landing in one of them.
func timeEach[T any](items []T, f func(T)) float64 {
	if len(items) == 0 {
		return 0
	}
	best := time.Duration(1<<62 - 1)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, it := range items {
			f(it)
		}
		best = min(best, time.Since(start))
	}
	return float64(best.Nanoseconds()) / 1e3 / float64(len(items))
}

var requestTypes = map[string]func() any{
	"POST /v1/heartbeat": func() any { return new(api.HeartbeatRequest) },
	"POST /v1/jobs":      func() any { return new(api.SubmitJobRequest) },
	"POST /v1/register":  func() any { return new(api.RegisterRequest) },
	"POST /v1/depart":    func() any { return new(api.DepartRequest) },
	"POST /v1/jobupdate": func() any { return new(api.JobUpdateRequest) },
}

var replyValues = map[string]any{
	"POST /v1/heartbeat":  api.HeartbeatResponse{Acknowledged: true},
	"POST /v1/jobs":       api.SubmitJobResponse{JobID: "job-000123"},
	"GET /v1/jobs/{id}":   api.JobStatus{JobID: "job-000123", State: db.JobRunning, NodeID: "node-0123", DeviceID: "gpu0", Submitted: time.Unix(1700000000, 0), Started: time.Unix(1700000000, 0)},
	"POST /v1/aggregated": api.AggregatedBeatResponse{Acknowledged: true},
}

// replay times decode, token verification, the failure detector's Beat
// and encode on the sampled requests of each route and weights them by
// how often the route was hit.
func replay(rec *recorder, stats map[string]*spanStats, secret []byte, requests int) (replayed, error) {
	var out replayed
	authority, err := auth.NewAuthority(secret, 0)
	if err != nil {
		return out, err
	}
	monitor := heartbeat.NewMonitor(0, 0)
	now := time.Now()
	per := func(route string, us float64) float64 {
		if st := stats[route]; st != nil && requests > 0 {
			return us * float64(st.calls) / float64(requests)
		}
		return 0
	}
	decodeJSON := func(mk func() any) func([]byte) {
		return func(b []byte) { _ = json.NewDecoder(bytes.NewReader(b)).Decode(mk()) }
	}
	encodeJSON := func(v any) float64 {
		return timeEach(make([]struct{}, 256), func(struct{}) { _ = json.NewEncoder(io.Discard).Encode(v) })
	}
	for route, bodies := range rec.bodies {
		name, relay := strings.CutPrefix(route, "relay ")
		if mk := requestTypes[name]; mk != nil {
			us := timeEach(bodies, decodeJSON(mk))
			if relay {
				out.relayDecodeUS += per(route, us)
				out.relayEncodeUS += per(route, encodeJSON(replyValues[name]))
				continue
			}
			out.decodeUS += per(route, us)
		}
		switch name {
		case "POST /v1/heartbeat", "POST /v1/depart":
			type cred struct {
				MachineID string `json:"machine_id"`
				Token     string `json:"token"`
			}
			creds := make([]cred, len(bodies))
			for i, b := range bodies {
				_ = json.Unmarshal(b, &creds[i])
				monitor.Track(creds[i].MachineID, now)
			}
			out.verifyUS += per(route, timeEach(creds, func(c cred) { _, _ = authority.VerifySubject(c.Token, c.MachineID, now) }))
			if name == "POST /v1/heartbeat" {
				out.monitorUS += per(route, timeEach(creds, func(c cred) { monitor.Beat(c.MachineID, now) }))
			}
		case "POST /v1/aggregated":
			var batches []api.AggregatedBeat
			deltas := 0
			for _, b := range bodies {
				if batch, err := api.DecodeAggregatedBeat(b); err == nil {
					batches = append(batches, batch)
					deltas += len(batch.Deltas)
					for _, d := range batch.Deltas {
						monitor.Track(d.NodeID, now)
					}
				}
			}
			out.aggDecodeUS = per(route, timeEach(bodies, func(b []byte) { _, _ = api.DecodeAggregatedBeat(b) }))
			out.aggEncodeUS = per(route, timeEach(batches, func(b api.AggregatedBeat) { _, _ = api.EncodeAggregatedBeat(b) }))
			// Every folded delta is verified and fed to the failure
			// detector exactly like a direct beat.
			if len(batches) > 0 {
				perBatch := float64(deltas) / float64(len(batches))
				var flat []api.AggBeatDelta
				for _, b := range batches {
					flat = append(flat, b.Deltas...)
				}
				out.verifyUS += per(route, perBatch*timeEach(flat, func(d api.AggBeatDelta) { _, _ = authority.VerifySubject(d.Token, d.NodeID, now) }))
				out.monitorUS += per(route, perBatch*timeEach(flat, func(d api.AggBeatDelta) { monitor.Beat(d.NodeID, now) }))
			}
		}
	}
	for route, v := range replyValues {
		out.encodeUS += per(route, encodeJSON(v))
	}
	return out, nil
}

// runTraced adds the traced per-layer metrics to res and prints the
// budget table. leader_kill has no traced pass: its layers are the lease
// and the promotion, which the scraped metrics already time from outside.
func runTraced(sb *sandbox, w workload, seed int64, window time.Duration, res *result) error {
	if w.replicated {
		return nil
	}
	rec := newRecorder()
	traced, err := runPass(sb, w, seed, tracedShare(window), rec)
	if err != nil {
		return err
	}
	plain, err := runPass(sb, w, seed, plainShare(window), nil)
	if err != nil {
		return err
	}
	if err := rec.write(filepath.Join(sb.root, ".bench_build", "trace-"+w.name+".json")); err != nil {
		return err
	}
	stats := analyse(rec.spans, rec.since)
	n := traced.requests
	rp, err := replay(rec, stats, traced.comp.secret, n)
	if err != nil {
		return err
	}
	perReq := func(d time.Duration) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	get := func(name string) *spanStats {
		if st := stats[name]; st != nil {
			return st
		}
		return &spanStats{}
	}
	// Request roots, split by the process they would run in.
	var route, routeSelf, relayRoute time.Duration
	var routes []string
	for name, st := range stats {
		if !strings.Contains(name, " /") {
			continue
		}
		routes = append(routes, name)
		if strings.HasPrefix(name, "relay ") {
			relayRoute += st.total
		} else {
			route += st.total
			routeSelf += st.self
		}
	}
	sort.Strings(routes)
	decisions := delta(traced.prom[0], traced.prom[1], "gpunion_scheduling_latency_seconds_count", nil)
	placeUS := 1e6 * delta(traced.prom[0], traced.prom[1], "gpunion_scheduling_latency_seconds_sum", nil) / float64(max(n, 1))

	L := res.Layers
	us := func(name string, v float64, calls int) { L[name] = metric{Value: v, Unit: "us", N: calls} }
	count := func(name string, calls int) {
		L[name] = metric{Value: float64(calls) / float64(max(n, 1)), Unit: "count", N: calls}
	}
	us("http.route_us", perReq(route), n)
	us("api.decode_us", rp.decodeUS, 0)
	us("api.encode_us", rp.encodeUS, 0)
	us("auth.verify_us", rp.verifyUS, 0)
	us("heartbeat.monitor_beat_us", rp.monitorUS, 0)
	us("scheduler.placebatch_us", placeUS, int(decisions))
	attributed := rp.decodeUS + rp.encodeUS + rp.verifyUS + rp.monitorUS + placeUS
	residual := perReq(routeSelf) - attributed
	us("core.residual_us", residual, 0)

	reads := get("db.read")
	us("db.read_us", perReq(reads.self), reads.calls)
	count("db.read_calls", reads.calls)
	writes, samples := get("db.write"), get("db.appendsample")
	us("db.write_us", perReq(writes.self+samples.self), writes.calls+samples.calls)
	count("db.write_calls", writes.calls+samples.calls)
	count("db.appendsample_calls", samples.calls)
	us("db.touchnodes_us", perReq(get("db.touchnodes").self), get("db.touchnodes").calls)
	us("db.jobsinstate_us", perReq(get("db.jobsinstate").self), get("db.jobsinstate").calls)
	hook := get("wal.hook_wait")
	us("wal.hook_wait_us", perReq(hook.total), hook.calls)
	us("wal.fs_write_us", perReq(get("wal.fs_write").total), get("wal.fs_write").calls)
	us("wal.fs_sync_us", perReq(get("wal.fs_sync").total), get("wal.fs_sync").calls)
	count("wal.groups_per_op", get("wal.fs_sync").calls)
	us("agent.launch_rpc_us", perReq(get("agent.launch_rpc").total), get("agent.launch_rpc").calls)
	us("agent.kill_rpc_us", perReq(get("agent.kill_rpc").total), get("agent.kill_rpc").calls)
	if w.relayed {
		us("aggregator.ingest_us", perReq(relayRoute), get("relay POST /v1/heartbeat").calls)
		us("aggregator.flush_us", perReq(get("aggregator.flush").total), get("aggregator.flush").calls)
		us("core.ingest_aggregated_us", perReq(get("POST /v1/aggregated").total), get("POST /v1/aggregated").calls)
		us("api.agg_encode_us", rp.aggEncodeUS, 0)
		us("api.agg_decode_us", rp.aggDecodeUS, 0)
	}
	unexplained := 100 * share(residual, perReq(route))
	L["budget.unexplained_pct"] = metric{Value: unexplained, Unit: "%"}
	overhead := 100 * (share(traced.serviceUS, plain.serviceUS) - 1)
	L["trace.overhead_pct"] = metric{Value: overhead, Unit: "%", N: plain.requests}

	// The budget table: what one request costs, by layer.
	var b strings.Builder
	fmt.Fprintf(&b, "  -- budget of %s: traced, one client, %d requests in %gs; mean microseconds per request\n",
		w.name, n, tracedShare(window).Seconds())
	for _, name := range routes {
		st := stats[name]
		fmt.Fprintf(&b, "  route %-38s n=%-7d mean %9.2f us  self %9.2f us\n",
			name, st.calls, float64(st.total.Microseconds())/float64(st.calls), float64(st.self.Microseconds())/float64(st.calls))
	}
	row := func(label string, v float64, note string) { fmt.Fprintf(&b, "    %-28s %10.2f  %s\n", label, v, note) }
	inReq := func(name string) float64 { return perReq(get(name).inReq) }
	row("api.decode", rp.decodeUS, "replayed")
	row("auth.verify", rp.verifyUS, "replayed")
	row("heartbeat.monitor_beat", rp.monitorUS, "replayed")
	row("api.encode", rp.encodeUS, "replayed")
	row("scheduler.placebatch", placeUS, fmt.Sprintf("from the coordinator's own decision timer, %d decisions", int(decisions)))
	row("db.read", inReq("db.read"), fmt.Sprintf("%.2f calls", float64(reads.reqCnt)/float64(max(n, 1))))
	row("db.jobsinstate", inReq("db.jobsinstate"), "")
	row("db.write", inReq("db.write")+inReq("db.appendsample"), fmt.Sprintf("%.2f calls, hook excluded", float64(writes.reqCnt+samples.reqCnt)/float64(max(n, 1))))
	row("db.touchnodes", inReq("db.touchnodes"), "flushes a request triggered at the 512-beat cap")
	row("wal.hook_wait", inReq("wal.hook_wait"), "group window + write + fsync, as the request sees it")
	row("agent.launch_rpc", perReq(get("agent.launch_rpc").total), "")
	row("agent.kill_rpc", perReq(get("agent.kill_rpc").total), "")
	// Every span inside a request tree is one of the rows above, so the
	// route span is their sum plus what no row claims.
	row("sum of parts", perReq(route)-residual, "")
	row("route span", perReq(route), "")
	row("core.residual (unexplained)", residual, fmt.Sprintf("%.1f%% of the route span", unexplained))
	fmt.Fprintf(&b, "    outside requests, per request: core.timer %.2f, db.touchnodes %.2f, wal.fs_write %.2f, wal.fs_sync %.2f (%.3f groups)\n",
		perReq(get("core.timer").self), backgroundUS(stats, "db.touchnodes", n),
		perReq(get("wal.fs_write").total), perReq(get("wal.fs_sync").total), float64(get("wal.fs_sync").calls)/float64(max(n, 1)))
	if w.relayed {
		fmt.Fprintf(&b, "    relay, per beat: ingest route %.2f (decode %.2f, encode %.2f replayed), flush %.2f, AGB1 encode %.2f decode %.2f\n",
			perReq(relayRoute), rp.relayDecodeUS, rp.relayEncodeUS, perReq(get("aggregator.flush").total), rp.aggEncodeUS, rp.aggDecodeUS)
	}
	fmt.Fprintf(&b, "    client saw %.2f us per request traced, %.2f us with decorators off (%d requests): trace.overhead_pct %.1f\n",
		traced.serviceUS, plain.serviceUS, plain.requests, overhead)
	res.Budget = b.String()
	return nil
}

// backgroundUS is the part of a span name's time spent outside request
// trees, per request.
func backgroundUS(stats map[string]*spanStats, name string, requests int) float64 {
	st := stats[name]
	if st == nil || requests == 0 {
		return 0
	}
	return float64((st.self - st.inReq).Nanoseconds()) / 1e3 / float64(requests)
}
