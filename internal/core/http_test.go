package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/aggregator"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/container"
	"gpunion/internal/db"
	"gpunion/internal/eventbus"
	"gpunion/internal/gpu"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// httpRig runs a coordinator and agents as real HTTP servers on
// localhost — the full REST path the daemons use — but on a shared
// simulated clock: tests advance time explicitly instead of sleeping,
// so the suite is deterministic and fast. HTTP round trips are
// synchronous, so every request completes before the clock moves on.
type httpRig struct {
	t        *testing.T
	clock    *simclock.Sim
	coord    *Coordinator
	coordSrv *httptest.Server
	client   *Client
	ckpts    *checkpoint.Store
}

func newHTTPRig(t *testing.T) *httpRig {
	t.Helper()
	clock := simclock.NewSim(t0)
	ckpts := checkpoint.NewStore(storage.NewMemStore(0))
	coord, err := New(Config{HeartbeatInterval: 100 * time.Millisecond}, clock,
		db.New(0), ckpts, eventbus.New(256))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	srv := httptest.NewServer(coord.Handler(nil))
	t.Cleanup(srv.Close)
	return &httpRig{
		t: t, clock: clock, coord: coord, coordSrv: srv,
		client: NewClient(srv.URL), ckpts: ckpts,
	}
}

// addHTTPNode starts an agent HTTP server, registers it through the
// coordinator's REST API, and arms a heartbeat loop on the simulated
// clock.
func (r *httpRig) addHTTPNode(id string, specs ...gpu.Spec) (*agent.Agent, *Client) {
	r.t.Helper()
	rt := container.NewRuntime(container.DefaultImages(), gpu.NewMixedInventory(specs...), 0, 0)
	coordClient := NewClient(r.coordSrv.URL)
	ag := agent.New(agent.Config{MachineID: id, Kernel: "5.15"}, r.clock, rt, r.ckpts, nil)
	ag.SetEndpoints([]agent.Endpoint{{ID: r.coordSrv.URL, Link: coordClient}})
	r.t.Cleanup(ag.Stop)

	agSrv := httptest.NewServer(ag.Handler())
	r.t.Cleanup(agSrv.Close)

	resp, err := ag.Join(agSrv.URL, 1<<30)
	if err != nil {
		r.t.Fatal(err)
	}

	var beat func()
	beat = func() {
		if !ag.Departed() {
			_, _ = ag.Beat()
		}
		r.clock.AfterFunc(resp.HeartbeatInterval, beat)
	}
	r.clock.AfterFunc(resp.HeartbeatInterval, beat)
	return ag, coordClient
}

// waitFor advances simulated time in small steps until cond holds or
// the simulated budget runs out. No wall-clock sleeping.
func (r *httpRig) waitFor(budget time.Duration, cond func() bool) {
	r.t.Helper()
	const step = 100 * time.Millisecond
	for elapsed := time.Duration(0); ; elapsed += step {
		if cond() {
			return
		}
		if elapsed >= budget {
			break
		}
		r.clock.Advance(step)
	}
	r.t.Fatal("condition not met within the simulated budget")
}

func TestHTTPEndToEndJobLifecycle(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090)

	spec := workload.SmallCNN
	spec.TotalSteps = 20 // ~4 s of real time on the modelled 3090
	jobID, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: spec.GPUMemMiB, Training: &spec,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.client.JobStatus(jobID)
	if err != nil || st.State != db.JobRunning {
		t.Fatalf("status = %+v, %v", st, err)
	}
	r.waitFor(30*time.Second, func() bool {
		st, err := r.client.JobStatus(jobID)
		return err == nil && st.State == db.JobCompleted
	})
}

func TestHTTPNodesEndpoint(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090, gpu.RTX3090)
	nodes, err := r.client.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].ID != "n1" || len(nodes[0].GPUs) != 2 {
		t.Fatalf("nodes = %+v", nodes)
	}
}

// TestHTTPNodeSamples: the samples route is the telemetry history's one
// reader — per node, per metric, optionally windowed; unknown node 404.
func TestHTTPNodeSamples(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090, gpu.RTX3090)
	r.clock.Advance(time.Second) // ten beats of two devices each
	all, err := r.client.NodeSamples("n1", "gpu_utilization", 0)
	if err != nil || len(all) != 20 {
		t.Fatalf("all history = %d points, %v; want 20", len(all), err)
	}
	for i, s := range all {
		if s.NodeID != "n1" || s.Metric != "gpu_utilization" || (i > 0 && s.Time.Before(all[i-1].Time)) {
			t.Fatalf("point %d = %+v, want n1 gpu_utilization in time order", i, s)
		}
	}
	recent, err := r.client.NodeSamples("n1", "gpu_memory_used_mib", 250*time.Millisecond)
	if err != nil || len(recent) != 6 { // beats at now, now-100ms, now-200ms
		t.Fatalf("last 250ms = %d points, %v; want 6", len(recent), err)
	}
	if none, err := r.client.NodeSamples("n1", "no_such_metric", 0); err != nil || len(none) != 0 {
		t.Fatalf("unknown metric = %v, %v; want empty", none, err)
	}
	_, err = r.client.NodeSamples("ghost", "gpu_utilization", 0)
	var apiErr api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != http.StatusNotFound {
		t.Fatalf("unknown node = %v, want a 404 api.Error", err)
	}
	resp, err := http.Get(r.coordSrv.URL + "/v1/nodes/n1/samples?since=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed since = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPKillJob(t *testing.T) {
	r := newHTTPRig(t)
	ag, _ := r.addHTTPNode("n1", gpu.RTX3090)
	jobID, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, Training: &workload.SmallCNN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.KillJob(jobID); err != nil {
		t.Fatal(err)
	}
	st, _ := r.client.JobStatus(jobID)
	if st.State != db.JobKilled {
		t.Fatalf("state = %s", st.State)
	}
	if len(ag.Status().RunningJobs) != 0 {
		t.Fatal("agent still running the job")
	}
	if err := r.client.KillJob("ghost"); err == nil {
		t.Fatal("killing unknown job succeeded")
	}
}

func TestHTTPProviderControls(t *testing.T) {
	r := newHTTPRig(t)
	ag, _ := r.addHTTPNode("n1", gpu.RTX3090)
	agClient := agent.NewClient("http://" + agentAddr(t, ag))
	_ = agClient
	// Drive the local controls through the agent's own REST API.
	srv := httptest.NewServer(ag.Handler())
	defer srv.Close()
	local := agent.NewClient(srv.URL)

	if err := local.Pause(); err != nil {
		t.Fatal(err)
	}
	st, err := local.Status()
	if err != nil || !st.Paused {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if err := local.Resume(); err != nil {
		t.Fatal(err)
	}
	ks, err := local.KillSwitch()
	if err != nil || len(ks.KilledJobs) != 0 {
		t.Fatalf("killswitch = %+v, %v", ks, err)
	}
}

// agentAddr is a placeholder (the agent has no listener of its own);
// tests construct servers explicitly.
func agentAddr(_ *testing.T, _ *agent.Agent) string { return "127.0.0.1:0" }

func TestHTTPScheduledDepartureMigration(t *testing.T) {
	r := newHTTPRig(t)
	ag1, _ := r.addHTTPNode("n1", gpu.RTX3090)
	r.addHTTPNode("n2", gpu.RTX3090)

	jobID, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, CheckpointIntervalSec: 1, Training: &workload.SmallCNN,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := r.client.JobStatus(jobID)
	firstNode := st.NodeID
	if firstNode == "" {
		t.Fatal("job not placed")
	}
	// Let it run and checkpoint, then gracefully depart its host.
	r.clock.Advance(1500 * time.Millisecond)
	if firstNode == "n1" {
		ag1.Depart(api.DepartScheduled, time.Minute)
	} else {
		t.Skip("job placed on n2 by rotation; scenario covered in sim tests")
	}

	r.waitFor(10*time.Second, func() bool {
		st, err := r.client.JobStatus(jobID)
		return err == nil && st.State == db.JobRunning && st.NodeID == "n2"
	})
	st, _ = r.client.JobStatus(jobID)
	if st.Migrations != 1 {
		t.Fatalf("migrations = %d", st.Migrations)
	}
}

func TestHTTPMetricsEndpoints(t *testing.T) {
	r := newHTTPRig(t)
	ag, _ := r.addHTTPNode("n1", gpu.RTX3090)
	srv := httptest.NewServer(ag.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "gpunion_gpu_utilization") {
		t.Fatalf("agent metrics missing gauges:\n%s", body)
	}

	resp2, err := r.coordSrv.Client().Get(r.coordSrv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n2, _ := resp2.Body.Read(buf)
	if !strings.Contains(string(buf[:n2]), "gpunion_scheduling_latency_seconds") {
		t.Fatal("coordinator metrics missing scheduling latency")
	}
}

func TestHTTPBadRequests(t *testing.T) {
	r := newHTTPRig(t)
	resp, err := r.coordSrv.Client().Post(r.coordSrv.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}
	if _, err := r.client.JobStatus("ghost"); err == nil {
		t.Fatal("unknown job status succeeded")
	}
}

// TestHTTPJSONBodyLimits: every route that reads a JSON body, on all
// three daemons, answers 413 to a body over api.MaxJSONBody and 400 to
// one JSON value followed by anything else, and gives a well-formed
// request the status it always gave.
func TestHTTPJSONBodyLimits(t *testing.T) {
	r := newHTTPRig(t)
	ag, _ := r.addHTTPNode("n1", gpu.RTX3090)
	relay := aggregator.New(aggregator.Config{ID: "agg-1"}, r.clock, r.coord)
	t.Cleanup(relay.Stop)
	coord, agnt, agg := r.coord.Handler(nil), ag.Handler(), relay.Handler()

	for _, route := range []struct {
		name    string
		handler http.Handler
		path    string
		body    any
		status  int
	}{
		{"coordinator register", coord, "/v1/register", api.RegisterRequest{MachineID: "n2", Addr: "http://127.0.0.1:1"}, 200},
		{"coordinator heartbeat", coord, "/v1/heartbeat", api.HeartbeatRequest{MachineID: "n1", Token: "forged.token"}, 401},
		{"coordinator heartbeat without a sequence", coord, "/v1/heartbeat", api.HeartbeatRequest{MachineID: "n1", Token: ag.Token()}, 401},
		{"coordinator depart", coord, "/v1/depart", api.DepartRequest{MachineID: "n1", Token: "forged.token"}, 401},
		{"coordinator jobupdate", coord, "/v1/jobupdate", api.JobUpdateRequest{MachineID: "n1", JobID: "ghost"}, 401},
		{"coordinator submit", coord, "/v1/jobs", api.SubmitJobRequest{Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 1 << 30}, 200},
		{"agent launch", agnt, "/v1/launch", api.LaunchRequest{JobID: "j1", ImageName: "no/such:image"}, 409},
		{"agent kill", agnt, "/v1/kill", api.KillRequest{JobID: "ghost"}, 404},
		{"agent checkpoint", agnt, "/v1/checkpoint", api.CheckpointRequest{JobID: "ghost"}, 409},
		{"aggregator heartbeat", agg, "/v1/heartbeat", api.HeartbeatRequest{MachineID: "n1", Token: "t", BeatSeq: 1}, 200},
		// Last: a departed agent stops answering the routes above.
		{"agent depart", agnt, "/v1/depart", api.DepartRequest{Reason: api.DepartScheduled}, 204},
	} {
		good, err := json.Marshal(route.body)
		if err != nil {
			t.Fatal(err)
		}
		oversize := append(bytes.Repeat([]byte(" "), api.MaxJSONBody), good...)
		for _, c := range []struct {
			name   string
			body   []byte
			status int
		}{
			{"oversize", oversize, http.StatusRequestEntityTooLarge},
			{"garbage tail", append(good[:len(good):len(good)], " }x"...), http.StatusBadRequest},
			{"well-formed", good, route.status},
		} {
			rec := httptest.NewRecorder()
			route.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route.path, bytes.NewReader(c.body)))
			if rec.Code != c.status {
				t.Errorf("%s, %s body: status %d, want %d (%s)", route.name, c.name, rec.Code, c.status,
					strings.TrimSpace(rec.Body.String()))
			}
		}
	}
}

// TestHeartbeatEncodingsFoldIdentically: the heartbeat route decodes
// json.Marshal's form by hand and hands anything else to json.Unmarshal
// (api.DecodeJSON); both must fold a beat the same way. One beat sequence
// — idle, telemetry, a job submitted and reported running, paused,
// resumed, a health event, an unknown job, an empty report — goes
// through core.Handler on two
// coordinators built alike: once as json.Marshal wrote it, once
// re-encoded with upper-cased keys, \u-escaped strings, keys in reverse
// order and whitespace between tokens, which only the fallback reads.
// The replies, the mutation streams and the final states must be equal.
func TestHeartbeatEncodingsFoldIdentically(t *testing.T) {
	telemetry := []gpu.Telemetry{
		{DeviceID: "gpu0", Model: "RTX 3090", Utilization: 0.75, UsedMemMiB: 18432,
			TotalMemMiB: 24576, TemperatureC: 61.5, PowerW: 250.25, Allocated: true},
		{DeviceID: "gpu1", Model: "RTX 3090", TotalMemMiB: 24576, TemperatureC: 40, PowerW: 100},
	}
	run := func(encode func([]byte) []byte) (replies []string, stream, state string) {
		b := newBeatRig(t, time.Minute, db.New(0))
		b.addSilentNode("n1", gpu.RTX3090, gpu.RTX3090)
		b.clock.Advance(10 * time.Second)
		var muts []db.Mutation
		defer b.store.AddMutationObserver(func(m db.Mutation) { muts = append(muts, m) })()
		handler := b.coord.Handler(nil)
		var job string
		for _, edit := range []func(*api.HeartbeatRequest){
			func(*api.HeartbeatRequest) {},
			func(r *api.HeartbeatRequest) { r.Telemetry = telemetry },
			func(r *api.HeartbeatRequest) {
				var err error
				job, err = b.coord.SubmitJob(api.SubmitJobRequest{User: "alice", Kind: "batch",
					ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: 8192, Training: &workload.SmallCNN})
				if err != nil {
					t.Fatal(err)
				}
				r.Telemetry, r.RunningJobs = telemetry, []string{job}
			},
			func(r *api.HeartbeatRequest) { r.RunningJobs, r.Paused = []string{job}, true },
			func(r *api.HeartbeatRequest) { r.RunningJobs = []string{job} },
			func(r *api.HeartbeatRequest) {
				r.RunningJobs = []string{job}
				r.HealthEvents = []gpu.HealthEvent{{Kind: gpu.HealthThermal, Severity: gpu.SeverityWarn,
					DeviceID: "gpu0", Value: 91, At: b.clock.Now(), Message: "throttling <85%>"}}
			},
			func(r *api.HeartbeatRequest) { r.RunningJobs = []string{job, "job-ghost"} },
			func(r *api.HeartbeatRequest) { r.Telemetry, r.RunningJobs = []gpu.Telemetry{}, []string{} },
		} {
			b.clock.Advance(20 * time.Second) // past a flush tick: a coalesced beat commits before the next beat
			req := b.beatReq("n1")
			edit(&req)
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/heartbeat", bytes.NewReader(encode(raw))))
			replies = append(replies, fmt.Sprintf("%d %s", rec.Code, strings.TrimSpace(rec.Body.String())))
		}
		b.clock.Advance(time.Minute) // past the coalescer's flush tick
		kinds := map[db.MutationType]bool{}
		for _, m := range muts {
			kinds[m.Type] = true
		}
		for _, want := range []db.MutationType{db.MutNodePut, db.MutBeat, db.MutSamplePut, db.MutNodeHealth} {
			if !kinds[want] {
				t.Errorf("the beats wrote no %s; the sequence no longer covers it", want)
			}
		}
		streamJSON, err := json.Marshal(muts)
		if err != nil {
			t.Fatal(err)
		}
		stateJSON, err := json.Marshal(b.store.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		return replies, string(streamJSON), string(stateJSON)
	}
	marshalled, marshalledStream, marshalledState := run(func(raw []byte) []byte { return raw })
	loose, looseStream, looseState := run(func(raw []byte) []byte { return looseJSON(t, raw) })
	if !slices.Equal(marshalled, loose) {
		t.Errorf("replies differ:\n marshalled %q\n loose      %q", marshalled, loose)
	}
	if marshalledStream != looseStream {
		t.Errorf("mutation streams differ:\n marshalled %s\n loose      %s", marshalledStream, looseStream)
	}
	if marshalledState != looseState {
		t.Errorf("final states differ:\n marshalled %s\n loose      %s", marshalledState, looseState)
	}
}

// looseJSON re-encodes a JSON document in a form json.Unmarshal reads
// as the same value and no encoder in this repository writes: keys
// upper-cased (encoding/json matches them case-insensitively) and in
// reverse order, every string character \u-escaped — except time
// values under "at", which time.Time.UnmarshalJSON reads unescaped — and
// whitespace between tokens.
func looseJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	escaped := func(s string) {
		out.WriteByte('"')
		for _, r := range s {
			fmt.Fprintf(&out, `\u%04x`, r)
		}
		out.WriteByte('"')
	}
	var write func(key string, v any)
	write = func(key string, v any) {
		switch v := v.(type) {
		case map[string]any:
			keys := slices.Sorted(maps.Keys(v))
			slices.Reverse(keys)
			out.WriteString("{\n")
			for i, k := range keys {
				if i > 0 {
					out.WriteString(" ,\n")
				}
				escaped(strings.ToUpper(k))
				out.WriteString(" :\t")
				write(k, v[k])
			}
			out.WriteString("\n}")
		case []any:
			out.WriteString("[ ")
			for i, e := range v {
				if i > 0 {
					out.WriteString(" , ")
				}
				write("", e)
			}
			out.WriteString(" ]")
		case string:
			if key == "at" {
				out.WriteString(strconv.Quote(v))
			} else {
				escaped(v)
			}
		default: // json.Number, bool, nil
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			out.Write(enc)
		}
	}
	write("", doc)
	out.WriteString(" \n")
	return out.Bytes()
}

// TestAgentRoutesRejectBadCredentials is the route audit of the
// coordinator's agent-originated mutating routes: a heartbeat, a
// departure notice or a job report claiming node n1 is refused with 401
// — and changes nothing — unless it carries n1's own credential. The
// job placed on n1 is the target.
func TestAgentRoutesRejectBadCredentials(t *testing.T) {
	r := newHTTPRig(t)
	r.addHTTPNode("n1", gpu.RTX3090)
	other, _ := r.addHTTPNode("n2")
	jobID, err := r.client.SubmitJob(api.SubmitJobRequest{
		User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
		GPUMemMiB: 8192, Training: &workload.SmallCNN,
	})
	if err != nil {
		t.Fatal(err)
	}
	job, err := r.coord.DB().GetJob(jobID)
	if err != nil || job.NodeID != "n1" || job.State != db.JobRunning {
		t.Fatalf("job = %+v, %v", job, err)
	}
	for _, route := range []struct {
		path string
		body func(token string) any
	}{
		{"/v1/heartbeat", func(tok string) any {
			return api.HeartbeatRequest{MachineID: "n1", Token: tok, BeatSeq: 1 << 40}
		}},
		{"/v1/depart", func(tok string) any {
			return api.DepartRequest{MachineID: "n1", Token: tok, Reason: api.DepartScheduled}
		}},
		{"/v1/jobupdate", func(tok string) any {
			return api.JobUpdateRequest{MachineID: "n1", Token: tok, JobID: jobID, State: db.JobCompleted}
		}},
	} {
		for _, cred := range []struct{ name, token string }{
			{"empty token", ""},
			{"forged token", "forged.token"},
			{"another node's token", other.Token()},
		} {
			raw, err := json.Marshal(route.body(cred.token))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := r.coordSrv.Client().Post(r.coordSrv.URL+route.path, "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s with %s: status %d, want 401", route.path, cred.name, resp.StatusCode)
			}
			if after, _ := r.coord.DB().GetJob(jobID); !reflect.DeepEqual(after, job) {
				t.Errorf("%s with %s changed the job: %+v", route.path, cred.name, after)
			}
			if node, _ := r.coord.DB().GetNode("n1"); node.Status != db.NodeActive {
				t.Errorf("%s with %s left n1 %s", route.path, cred.name, node.Status)
			}
		}
	}
}

// TestLinksAgreeOnReportsAndDepartures: the in-process link and the
// HTTP client reach the same coordinator entries, so a job report or a
// departure notice gets the same answer, and the same class of error,
// over either.
func TestLinksAgreeOnReportsAndDepartures(t *testing.T) {
	r := newHTTPRig(t)
	n1, _ := r.addHTTPNode("n1", gpu.RTX3090, gpu.RTX3090)
	var jobs []string
	for range 2 {
		id, err := r.client.SubmitJob(api.SubmitJobRequest{
			User: "alice", Kind: "batch", ImageName: "pytorch/pytorch:2.3-cuda12",
			GPUMemMiB: 8192, Training: &workload.SmallCNN,
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, id)
	}
	n2, _ := r.addHTTPNode("n2")
	n3, _ := r.addHTTPNode("n3")
	leavers := []*agent.Agent{n2, n3}
	links := []struct {
		name string
		link agent.Link
	}{{"local", LocalLink{C: r.coord}}, {"http", r.client}}

	class := func(err error) string {
		var apiErr api.Error
		switch {
		case err == nil:
			return "answered"
		case errors.Is(err, ErrBadToken), errors.As(err, &apiErr) && apiErr.Code == http.StatusUnauthorized:
			return "unauthorized"
		default:
			return "other: " + err.Error()
		}
	}
	jobState := func(id string) db.JobState {
		rec, _ := r.coord.DB().GetJob(id)
		return rec.State
	}
	nodeStatus := func(id string) db.NodeStatus {
		rec, _ := r.coord.DB().GetNode(id)
		return rec.Status
	}
	for i, l := range links {
		for _, c := range []struct {
			name  string
			send  func() error
			want  string
			check func() bool
		}{
			{"report with a forged token", func() error {
				return l.link.JobUpdate(api.JobUpdateRequest{MachineID: "n1", Token: "forged.token", JobID: jobs[i], State: db.JobCompleted})
			}, "unauthorized", func() bool { return jobState(jobs[i]) == db.JobRunning }},
			{"report with another node's token", func() error {
				return l.link.JobUpdate(api.JobUpdateRequest{MachineID: "n1", Token: n2.Token(), JobID: jobs[i], State: db.JobCompleted})
			}, "unauthorized", func() bool { return jobState(jobs[i]) == db.JobRunning }},
			{"report from a node the job is not on", func() error {
				return l.link.JobUpdate(api.JobUpdateRequest{MachineID: "n2", Token: n2.Token(), JobID: jobs[i], State: db.JobCompleted})
			}, "answered", func() bool { return jobState(jobs[i]) == db.JobRunning }},
			{"report from the job's node", func() error {
				return l.link.JobUpdate(api.JobUpdateRequest{MachineID: "n1", Token: n1.Token(), JobID: jobs[i], State: db.JobCompleted})
			}, "answered", func() bool { return jobState(jobs[i]) == db.JobCompleted }},
			{"departure with a forged token", func() error {
				return l.link.Depart(api.DepartRequest{MachineID: leavers[i].MachineID(), Token: "forged.token", Reason: api.DepartScheduled})
			}, "unauthorized", func() bool { return nodeStatus(leavers[i].MachineID()) == db.NodeActive }},
			{"departure with the node's token", func() error {
				return l.link.Depart(api.DepartRequest{MachineID: leavers[i].MachineID(), Token: leavers[i].Token(), Reason: api.DepartScheduled})
			}, "answered", func() bool { return nodeStatus(leavers[i].MachineID()) == db.NodeDeparted }},
		} {
			if got := class(c.send()); got != c.want {
				t.Errorf("%s, %s: %s, want %s", l.name, c.name, got, c.want)
			}
			if !c.check() {
				t.Errorf("%s, %s: wrong state afterwards", l.name, c.name)
			}
		}
	}
}
