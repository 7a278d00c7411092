package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"gpunion/internal/api"
	"gpunion/internal/core"
	"gpunion/internal/db"
)

// TestMain runs this test binary as the coordinator daemon when its
// first argument is "coordinator", so a test can boot the shipped main
// as a child process and kill it.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "coordinator" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// daemon boots the coordinator with args, listening on addr, with its
// log in logPath, and waits until it answers.
func daemon(t *testing.T, addr, logPath string, args ...string) *exec.Cmd {
	t.Helper()
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(os.Args[0], append([]string{"coordinator", "-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	client := core.NewClient("http://" + addr)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, err := client.Nodes(); err == nil {
			return cmd
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(logPath)
			t.Fatalf("coordinator never answered on %s:\n%s", addr, log)
		}
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// register joins node-1 through client.
func register(t *testing.T, client *core.Client) api.RegisterResponse {
	t.Helper()
	reg, err := client.Register(api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: "node-1", Addr: "http://127.0.0.1:1", Kernel: "5.15",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// beat sends node-1's heartbeat number seq with the credential reg gave.
func beat(client *core.Client, reg api.RegisterResponse, seq uint64) (api.HeartbeatResponse, error) {
	return client.Heartbeat(api.HeartbeatRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: reg.LeaderEpoch},
		MachineID: "node-1", Token: reg.Token, BeatSeq: seq,
	})
}

// TestCrashRestartKeepsNodesAndTokens boots the shipped daemon on a WAL
// directory, registers a node and beats through core.Client, SIGKILLs
// the process and restarts it on the same directory. The node must be
// recovered from the log, and the node's pre-crash token must still
// verify against the persisted auth.key: its next beat is answered 200
// with a request to re-register (the agent handle died with the
// process), not refused with 401.
func TestCrashRestartKeepsNodesAndTokens(t *testing.T) {
	addr := freeAddr(t)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	client := core.NewClient("http://" + addr)

	first := daemon(t, addr, filepath.Join(dir, "first.log"), "-wal-dir", walDir)
	reg := register(t, client)
	if hb, err := beat(client, reg, 1); err != nil || !hb.Acknowledged || hb.Reregister {
		t.Fatalf("beat before the crash = %+v, %v", hb, err)
	}

	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait()
	secondLog := filepath.Join(dir, "second.log")
	daemon(t, addr, secondLog, "-wal-dir", walDir)

	nodes, err := client.Nodes()
	if err != nil || len(nodes) != 1 || nodes[0].ID != "node-1" {
		t.Fatalf("nodes after the restart = %+v, %v", nodes, err)
	}
	log, err := os.ReadFile(secondLog)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`recovered from ` + regexp.QuoteMeta(walDir) + `: .* replayed=(\d+)`).FindSubmatch(log)
	if m == nil {
		t.Fatalf("no recovery line in the restarted daemon's log:\n%s", log)
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatalf("the restart replayed nothing:\n%s", log)
	}
	if hb, err := beat(client, reg, 2); err != nil || !hb.Reregister {
		t.Fatalf("beat with the pre-crash token = %+v, %v; want 200 asking to re-register", hb, err)
	}
}

// TestStandbyTakesOverFromKilledLeader boots the shipped daemon twice on
// one lease file with a one-second TTL: a leader, and a standby tailing
// its log. A node registers with the leader, which is then SIGKILLed.
// The standby's own leadership loop must win the lease and log its
// promotion, and the node's pre-kill token must verify there (the one
// auth.key beside the lease): its next beat is answered 200 with a
// request to re-register, not refused with 401.
func TestStandbyTakesOverFromKilledLeader(t *testing.T) {
	dir := t.TempDir()
	lease := filepath.Join(dir, "lease.json")
	replica := func(mode, id string) []string {
		return []string{"-mode", mode, "-replica-id", id, "-lease-file", lease, "-lease-ttl-sec", "1",
			"-wal-dir", filepath.Join(dir, "wal-"+id)}
	}
	leaderAddr, standbyAddr := freeAddr(t), freeAddr(t)
	leader := daemon(t, leaderAddr, filepath.Join(dir, "leader.log"), replica("leader", "coord-a")...)
	standbyLog := filepath.Join(dir, "standby.log")
	daemon(t, standbyAddr, standbyLog, append(replica("standby", "coord-b"), "-follow-dir", filepath.Join(dir, "wal-coord-a"))...)

	reg := register(t, core.NewClient("http://"+leaderAddr))
	standby := core.NewClient("http://" + standbyAddr)
	if _, err := beat(standby, reg, 1); err == nil || !strings.Contains(err.Error(), "not the leader") {
		t.Fatalf("beat at the standby while the leader lives = %v, want not the leader", err)
	}

	if err := leader.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = leader.Wait()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		log, _ := os.ReadFile(standbyLog)
		if strings.Contains(string(log), "replica coord-b promoted to leader at epoch 2") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the standby never logged its promotion:\n%s", log)
		}
	}
	if hb, err := beat(standby, reg, 2); err != nil || !hb.Reregister {
		t.Fatalf("beat with the pre-kill token at the promoted standby = %+v, %v; want 200 asking to re-register", hb, err)
	}
}
