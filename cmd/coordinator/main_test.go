package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
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

// daemon boots the coordinator solo on walDir, listening on addr, with
// its log in logPath, and waits until it answers.
func daemon(t *testing.T, addr, walDir, logPath string) *exec.Cmd {
	t.Helper()
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	cmd := exec.Command(os.Args[0], "coordinator", "-listen", addr, "-wal-dir", walDir)
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

// TestCrashRestartKeepsNodesAndTokens boots the shipped daemon on a WAL
// directory, registers a node and beats through core.Client, SIGKILLs
// the process and restarts it on the same directory. The node must be
// recovered from the log, and the node's pre-crash token must still
// verify against the persisted auth.key: its next beat is answered 200
// with a request to re-register (the agent handle died with the
// process), not refused with 401.
func TestCrashRestartKeepsNodesAndTokens(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	client := core.NewClient("http://" + addr)

	first := daemon(t, addr, walDir, filepath.Join(dir, "first.log"))
	reg, err := client.Register(api.RegisterRequest{
		Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion},
		MachineID: "node-1", Addr: "http://127.0.0.1:1", Kernel: "5.15",
		GPUs: []db.GPUInfo{{DeviceID: "gpu0", Model: "RTX 3090", MemoryMiB: 24576, CapabilityMajor: 8, CapabilityMinor: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	beat := func(seq uint64) (api.HeartbeatResponse, error) {
		return client.Heartbeat(api.HeartbeatRequest{
			Envelope:  api.Envelope{ProtocolVersion: api.ProtocolVersion, LeaderEpoch: reg.LeaderEpoch},
			MachineID: "node-1", Token: reg.Token, BeatSeq: seq,
		})
	}
	if hb, err := beat(1); err != nil || !hb.Acknowledged || hb.Reregister {
		t.Fatalf("beat before the crash = %+v, %v", hb, err)
	}

	if err := first.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = first.Wait()
	secondLog := filepath.Join(dir, "second.log")
	daemon(t, addr, walDir, secondLog)

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
	if hb, err := beat(2); err != nil || !hb.Reregister {
		t.Fatalf("beat with the pre-crash token = %+v, %v; want 200 asking to re-register", hb, err)
	}
}
