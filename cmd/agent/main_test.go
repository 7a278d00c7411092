package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpunion/internal/agent"
	"gpunion/internal/api"
	"gpunion/internal/checkpoint"
	"gpunion/internal/core"
	"gpunion/internal/db"
	"gpunion/internal/gpu"
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
	"gpunion/internal/storage"
	"gpunion/internal/workload"
)

// TestMain runs this test binary as the agent daemon when its first
// argument is "agent", so a test can boot the shipped main as a child
// process and signal it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDaemonBeatsOnItsOwn boots the shipped agent against a coordinator
// served from the test with a 200 ms heartbeat interval. Nothing in the
// test beats: the node's last heartbeat must still advance across at
// least three intervals, and SIGINT must leave a scheduled departure on
// the coordinator.
func TestDaemonBeatsOnItsOwn(t *testing.T) {
	const interval = 200 * time.Millisecond
	coord, coordURL := serveCoordinator(t, interval)
	d := startDaemon(t, "-coordinator", coordURL, "-listen", freeListen(t), "-gpus", "RTX 3090:1")
	node := func() (db.NodeRecord, bool) {
		nodes := coord.DB().ListNodes()
		if len(nodes) != 1 {
			return db.NodeRecord{}, false
		}
		return nodes[0], true
	}

	var joined time.Time
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.fatal("no beat %v after the registration", 3*interval)
		}
		rec, ok := node()
		if !ok {
			continue
		}
		if joined.IsZero() {
			joined = rec.LastHeartbeat
		}
		if rec.LastHeartbeat.Sub(joined) >= 3*interval {
			break
		}
	}

	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.exited:
		if err != nil {
			d.fatal("agent exited with %v after SIGINT", err)
		}
	case <-time.After(10 * time.Second):
		d.fatal("agent still running 10 s after SIGINT")
	}
	if rec, _ := node(); rec.Status != db.NodeDeparted {
		d.fatal("node after SIGINT = %s, want %s", rec.Status, db.NodeDeparted)
	}
	scheduled := false
	for _, ev := range coord.Trace().Events() {
		if ev.Kind == obs.KindNodeDeparted && ev.Detail["reason"] == string(api.DepartScheduled) {
			scheduled = true
		}
	}
	if !scheduled {
		d.fatal("the coordinator saw no scheduled departure")
	}
}

// TestDaemonRestartIsTheSameNode SIGKILLs the shipped agent, waits for
// the coordinator to mark its node unreachable, and starts it again
// with the same flags. The restarted daemon must register as the same
// node: one record, under the first run's ID, active again, with the
// crash counted as one departure.
func TestDaemonRestartIsTheSameNode(t *testing.T) {
	const interval = 200 * time.Millisecond
	coord, coordURL := serveCoordinator(t, interval)
	args := []string{"-coordinator", coordURL, "-listen", freeListen(t), "-gpus", "RTX 3090:1"}
	// waitNode polls the coordinator's node table until ok accepts it.
	waitNode := func(d *daemon, what string, ok func([]db.NodeRecord) bool) []db.NodeRecord {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			if nodes := coord.DB().ListNodes(); ok(nodes) {
				return nodes
			}
		}
		d.fatal("%s: node table = %+v", what, coord.DB().ListNodes())
		return nil
	}

	first := startDaemon(t, args...)
	id := waitNode(first, "no registration", func(ns []db.NodeRecord) bool { return len(ns) == 1 })[0].ID
	if err := first.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-first.exited
	waitNode(first, "the killed node was never marked unreachable", func(ns []db.NodeRecord) bool {
		return len(ns) == 1 && ns[0].Status == db.NodeUnreachable
	})

	second := startDaemon(t, args...)
	nodes := waitNode(second, "the restarted daemon did not come back as the same node", func(ns []db.NodeRecord) bool {
		return len(ns) > 1 || len(ns) == 1 && ns[0].Status == db.NodeActive
	})
	if len(nodes) != 1 || nodes[0].ID != id || nodes[0].Departures != 1 {
		second.fatal("after the restart the coordinator holds %+v; want one active record %s with one departure", nodes, id)
	}
}

// serveCoordinator serves a coordinator with the given heartbeat
// interval over HTTP from the test and returns it with its base URL.
func serveCoordinator(t *testing.T, interval time.Duration) (*core.Coordinator, string) {
	t.Helper()
	coord, err := core.New(core.Config{HeartbeatInterval: interval}, simclock.Real(), db.New(0),
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)
	srv := httptest.NewServer(coord.Handler(nil))
	t.Cleanup(srv.Close)
	return coord, srv.URL
}

// freeListen returns a -listen value on a loopback port that was free a
// moment ago.
func freeListen(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return ":" + strconv.Itoa(l.Addr().(*net.TCPAddr).Port)
}

// daemon is one run of the shipped agent main as a child process.
type daemon struct {
	t       *testing.T
	cmd     *exec.Cmd
	exited  chan error
	logPath string
}

// startDaemon re-executes this test binary as the agent daemon with
// args; the process is killed when the test ends.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, cmd: exec.Command(os.Args[0], append([]string{"agent"}, args...)...),
		exited: make(chan error, 1), logPath: filepath.Join(t.TempDir(), "agent.log")}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { d.exited <- d.cmd.Wait() }()
	t.Cleanup(func() { _ = d.cmd.Process.Kill() })
	return d
}

// fatal fails the test with the daemon's log attached.
func (d *daemon) fatal(format string, args ...any) {
	d.t.Helper()
	log, _ := os.ReadFile(d.logPath)
	d.t.Fatalf(format+"\nagent log:\n%s", append(args, log)...)
}

// TestRelayFlagsAreGone: the agent has one heartbeat path, so an
// invocation that still names a rack relay or a telemetry cadence
// exits at start with the flag package's usage error instead of
// registering.
func TestRelayFlagsAreGone(t *testing.T) {
	for _, flag := range []string{"-aggregator", "-telemetry-every"} {
		out, err := exec.Command(os.Args[0], "agent", "-coordinator", "http://127.0.0.1:1", flag, "4").CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("agent %s: err = %v, want exit status 2\n%s", flag, err, out)
		}
		if want := "flag provided but not defined: " + flag; !strings.Contains(string(out), want) {
			t.Fatalf("agent %s printed %q, want %q", flag, out, want)
		}
	}
}

func TestParseGPUFlag(t *testing.T) {
	entries, err := parseGPUFlag("RTX 3090:2,A100:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %+v", entries)
	}
	if entries[0].Model != "RTX 3090" || entries[0].Count != 2 {
		t.Fatalf("first = %+v", entries[0])
	}
	if entries[1].Model != "A100" || entries[1].Count != 1 {
		t.Fatalf("second = %+v", entries[1])
	}
}

func TestParseGPUFlagDefaultCount(t *testing.T) {
	entries, err := parseGPUFlag("A6000")
	if err != nil || len(entries) != 1 || entries[0].Count != 1 {
		t.Fatalf("entries = %+v, %v", entries, err)
	}
}

func TestParseGPUFlagWhitespace(t *testing.T) {
	entries, err := parseGPUFlag(" RTX 4090 : 8 , ")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Model != "RTX 4090" || entries[0].Count != 8 {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestParseGPUFlagErrors(t *testing.T) {
	if _, err := parseGPUFlag(""); err == nil {
		t.Fatal("empty flag accepted")
	}
	if _, err := parseGPUFlag("A100:many"); err == nil {
		t.Fatal("non-numeric count accepted")
	}
}

// TestAgentFollowsLeadershipAcrossEndpoints drives the daemon's own
// wiring — coordinatorEndpoints, agent.Join/Beat — against two real
// coordinators over HTTP that share a lease and, standing in for the
// shipped log, a store: the typed not-the-leader reply must survive the
// wire, and after the leader is gone the agent's next beats must land on
// the survivor and re-join under its epoch. A job that finishes while
// the first replica is dead is reported to the survivor.
func TestAgentFollowsLeadershipAcrossEndpoints(t *testing.T) {
	clock := simclock.NewSim(time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC))
	lease := core.NewLease(core.NewMemLeaseStore(), clock, 30*time.Second, 5*time.Second)
	store := db.New(0)
	var ag *agent.Agent
	boot := func(id string) (*core.Coordinator, *httptest.Server) {
		// An interval longer than the test keeps the agent's own loop
		// quiet: every beat below is the test's.
		c, err := core.New(core.Config{HeartbeatInterval: time.Hour, Lease: lease, ReplicaID: id,
			AuthSecret: []byte("shared-across-replicas")},
			clock, store, checkpoint.NewStore(storage.NewMemStore(0)), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		// The coordinators reach the agent through its handler in
		// process; everything the agent sends travels over a socket.
		srv := httptest.NewServer(c.Handler(func(string) core.AgentHandle {
			return &agent.Client{BaseURL: "http://" + ag.MachineID(),
				HTTPClient: &http.Client{Transport: api.InProcess{Handler: ag.Handler()}}}
		}))
		t.Cleanup(srv.Close)
		return c, srv
	}
	coordA, srvA := boot("coord-a")
	coordB, srvB := boot("coord-b")
	if !coordA.TryLead() {
		t.Fatal("coord-a failed to take the free lease")
	}

	ag = agent.New(agent.Config{MachineID: "node-1", Kernel: "5.15"}, clock, []gpu.Spec{gpu.RTX3090},
		checkpoint.NewStore(storage.NewMemStore(0)), nil)
	t.Cleanup(ag.Stop)
	// The standby is listed first: the join must walk past it.
	eps := coordinatorEndpoints(srvB.URL + ", " + srvA.URL)
	if len(eps) != 2 || eps[0].ID != srvB.URL || eps[1].ID != srvA.URL {
		t.Fatalf("endpoints = %+v", eps)
	}
	ag.SetEndpoints(eps)

	_, err := ag.Join("http://127.0.0.1:1", 1<<30)
	var nl api.ErrNotLeader
	if !errors.As(err, &nl) || nl.Epoch != 1 {
		t.Fatalf("join at the standby = %v, want a typed ErrNotLeader at epoch 1", err)
	}
	ag.Redirect()
	if _, err := ag.Join("http://127.0.0.1:1", 1<<30); err != nil {
		t.Fatal(err)
	}
	if hb, err := ag.Beat(); err != nil || !hb.Acknowledged || ag.CoordEpoch() != 1 {
		t.Fatalf("beat at the leader = %+v, %v (epoch %d)", hb, err, ag.CoordEpoch())
	}
	spec := workload.SmallCNN
	spec.TotalSteps = 50 // a few seconds of simulated training
	jobID, err := coordA.SubmitJob(api.SubmitJobRequest{User: "alice", Kind: "batch",
		ImageName: "pytorch/pytorch:2.3-cuda12", GPUMemMiB: spec.GPUMemMiB, Training: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := coordA.JobStatus(jobID); st.State != db.JobRunning || st.NodeID != "node-1" {
		t.Fatalf("job at the leader = %+v", st)
	}

	// The leader dies; the job finishes while nobody leads, and the
	// standby wins the lease once the grace passes.
	coordA.Stop()
	srvA.Close()
	clock.Advance(40 * time.Second)
	if len(ag.Status().RunningJobs) != 0 {
		t.Fatal("the job did not finish while the leader was dead")
	}
	if !coordB.TryLead() {
		t.Fatal("coord-b failed to take the lapsed lease")
	}
	if _, err := ag.Beat(); err == nil {
		t.Fatal("a beat to a dead endpoint reported success")
	}
	if got := ag.ActiveEndpoint().ID; got != srvB.URL {
		t.Fatalf("after an unanswered beat the active endpoint is %s, want the survivor", got)
	}
	if st, _ := coordB.JobStatus(jobID); st.State != db.JobRunning {
		t.Fatalf("job at the survivor before the agent reached it = %+v", st)
	}
	// The survivor does not know the node's transport yet: the beat
	// re-joins, and the report the dead leader never answered follows.
	if _, err := ag.Beat(); err != nil {
		t.Fatal(err)
	}
	if st, _ := coordB.JobStatus(jobID); st.State != db.JobCompleted {
		t.Fatalf("job at the survivor after the re-join = %+v, want completed", st)
	}
	if hb, err := ag.Beat(); err != nil || !hb.Acknowledged {
		t.Fatalf("beat at the survivor = %+v, %v", hb, err)
	}
	if ag.CoordEpoch() != 2 {
		t.Fatalf("agent observed epoch %d, want 2", ag.CoordEpoch())
	}
	if nodes := coordB.Nodes(); len(nodes) != 1 || nodes[0].ID != "node-1" {
		t.Fatalf("survivor's fleet = %+v", nodes)
	}
}
