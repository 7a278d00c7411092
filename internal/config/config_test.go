package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCoordinatorDefaults(t *testing.T) {
	var c Coordinator
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Listen != ":8080" || c.HeartbeatIntervalSec != 10 || c.MissedThreshold != 3 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Strategy != "round-robin" {
		t.Fatalf("strategy = %q", c.Strategy)
	}
	if c.HeartbeatInterval() != 10*time.Second {
		t.Fatalf("interval = %v", c.HeartbeatInterval())
	}
}

func TestCoordinatorBadStrategy(t *testing.T) {
	c := Coordinator{Strategy: "random"}
	if err := c.Validate(); err == nil {
		t.Fatal("bad strategy accepted")
	}
}

func TestCoordinatorValidStrategies(t *testing.T) {
	for _, s := range []string{"round-robin", "best-fit", "least-loaded"} {
		c := Coordinator{Strategy: s}
		if err := c.Validate(); err != nil {
			t.Errorf("strategy %q rejected: %v", s, err)
		}
	}
}

func TestAgentRequiresCoordinatorURL(t *testing.T) {
	var a Agent
	if err := a.Validate(); err == nil {
		t.Fatal("missing coordinator_url accepted")
	}
}

func TestAgentDefaults(t *testing.T) {
	a := Agent{CoordinatorURL: "http://coord:8080"}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Listen != ":7070" || a.AdvertiseURL != "http://127.0.0.1:7070" {
		t.Fatalf("defaults = %+v", a)
	}
	if len(a.GPUs) != 1 || a.GPUs[0].Model != "RTX 3090" {
		t.Fatalf("default GPUs = %+v", a.GPUs)
	}
	if a.CheckpointIntervalSec != 600 || a.StorageBytes <= 0 {
		t.Fatalf("defaults = %+v", a)
	}
}

// The default advertise URL is the address the coordinator dials back:
// the listen host when there is one, loopback when the agent binds every
// interface.
func TestAgentAdvertiseURL(t *testing.T) {
	for _, tc := range []struct{ listen, want string }{
		{":7070", "http://127.0.0.1:7070"},
		{"0.0.0.0:7070", "http://127.0.0.1:7070"},
		{"[::]:7070", "http://127.0.0.1:7070"},
		{"127.0.0.1:7070", "http://127.0.0.1:7070"},
		{"node7.lab:7070", "http://node7.lab:7070"},
		{"10.1.2.3:7071", "http://10.1.2.3:7071"},
		{"[fe80::1]:7070", "http://[fe80::1]:7070"},
	} {
		a := Agent{CoordinatorURL: "http://coord:8080", Listen: tc.listen}
		if err := a.Validate(); err != nil {
			t.Fatalf("listen %q: %v", tc.listen, err)
		}
		if a.AdvertiseURL != tc.want {
			t.Errorf("listen %q: advertise URL %q, want %q", tc.listen, a.AdvertiseURL, tc.want)
		}
	}
	// An explicit advertise URL is kept as given.
	a := Agent{CoordinatorURL: "http://coord:8080", Listen: "0.0.0.0:7070", AdvertiseURL: "http://gpu-box:7070"}
	if err := a.Validate(); err != nil || a.AdvertiseURL != "http://gpu-box:7070" {
		t.Fatalf("explicit advertise URL = %q, %v", a.AdvertiseURL, err)
	}
	// A listen address without a port cannot be dialled back.
	a = Agent{CoordinatorURL: "http://coord:8080", Listen: "7070"}
	if err := a.Validate(); err == nil {
		t.Fatalf("listen %q accepted, advertise URL %q", a.Listen, a.AdvertiseURL)
	}
}

// TestAgentMachineID: the identity is a pure function of the advertise
// URL in auth.NewMachineID's node-<16 hex> shape, so the same listen
// address gives the same node and another address another node.
func TestAgentMachineID(t *testing.T) {
	id := func(listen string) string {
		a := Agent{CoordinatorURL: "http://coord:8080", Listen: listen}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		return a.MachineID()
	}
	got := id(":7070")
	if len(got) != len("node-")+16 || !strings.HasPrefix(got, "node-") || strings.Trim(got[5:], "0123456789abcdef") != "" {
		t.Fatalf("machine id %q is not node-<16 hex>", got)
	}
	if again := id("0.0.0.0:7070"); again != got {
		t.Fatalf("two spellings of one advertise address gave %q and %q", got, again)
	}
	if other := id(":7071"); other == got {
		t.Fatalf("two advertise addresses share the id %q", got)
	}
}

func TestAgentUnknownGPU(t *testing.T) {
	a := Agent{CoordinatorURL: "http://x", GPUs: []GPUEntry{{Model: "H100", Count: 1}}}
	if err := a.Validate(); err == nil {
		t.Fatal("unknown GPU model accepted")
	}
	a = Agent{CoordinatorURL: "http://x", GPUs: []GPUEntry{{Model: "A100", Count: 0}}}
	if err := a.Validate(); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestAgentInventoryExpansion(t *testing.T) {
	a := Agent{CoordinatorURL: "http://x", GPUs: []GPUEntry{
		{Model: "A100", Count: 2}, {Model: "A6000", Count: 4},
	}}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	specs, err := a.Inventory()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 6 || specs[0].Model != "A100" || specs[5].Model != "A6000" {
		t.Fatalf("inventory = %+v", specs)
	}
}

func TestParseCoordinator(t *testing.T) {
	c, err := ParseCoordinator(strings.NewReader(`{"listen": ":9999", "strategy": "best-fit"}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Listen != ":9999" || c.Strategy != "best-fit" {
		t.Fatalf("parsed = %+v", c)
	}
	if _, err := ParseCoordinator(strings.NewReader("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	// The retired persistence key must fail loudly and point at its
	// replacement, even next to a wal_dir.
	for _, stale := range []string{
		`{"snapshot_path": "/data/snap.json"}`,
		`{"snapshot_path": "", "wal_dir": "/data/wal"}`,
	} {
		if _, err := ParseCoordinator(strings.NewReader(stale)); err == nil || !strings.Contains(err.Error(), "wal_dir") {
			t.Fatalf("%s: err = %v, want one naming wal_dir", stale, err)
		}
	}
}

func TestParseAgent(t *testing.T) {
	a, err := ParseAgent(strings.NewReader(`{
		"coordinator_url": "http://coord:8080",
		"gpus": [{"model": "RTX 4090", "count": 8}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.GPUs) != 1 || a.GPUs[0].Count != 8 {
		t.Fatalf("parsed = %+v", a)
	}
}

func TestLoadFromFiles(t *testing.T) {
	dir := t.TempDir()
	cpath := filepath.Join(dir, "coord.json")
	if err := os.WriteFile(cpath, []byte(`{"listen": ":8181"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := LoadCoordinator(cpath)
	if err != nil || c.Listen != ":8181" {
		t.Fatalf("LoadCoordinator = %+v, %v", c, err)
	}
	apath := filepath.Join(dir, "agent.json")
	if err := os.WriteFile(apath, []byte(`{"coordinator_url": "http://c"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadAgent(apath)
	if err != nil || a.CoordinatorURL != "http://c" {
		t.Fatalf("LoadAgent = %+v, %v", a, err)
	}
	badAgent := filepath.Join(dir, "bad-agent.json")
	if err := os.WriteFile(badAgent, []byte(`{"coordinator_url": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAgent(badAgent); err == nil || !strings.Contains(err.Error(), badAgent) ||
		!strings.Contains(err.Error(), "decoding agent config") {
		t.Fatalf("bad agent file: err = %v, want a decode error naming %s", err, badAgent)
	}
	if _, err := LoadAgent(filepath.Join(dir, "missing-agent.json")); err == nil {
		t.Fatal("missing agent file accepted")
	}
	if _, err := LoadCoordinator(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte(`{"listen": ":8181", "snapshot_path": "snap.json"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCoordinator(stale); err == nil || !strings.Contains(err.Error(), "wal_dir") {
		t.Fatalf("stale snapshot_path: err = %v, want one naming wal_dir", err)
	}
}

func TestCoordinatorWALDefaults(t *testing.T) {
	var c Coordinator
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.WALDir != "" {
		t.Fatalf("WAL enabled by default: %q", c.WALDir)
	}
	if c.WALGroupCommitMS != 2 || c.SnapshotIntervalSec != 300 {
		t.Fatalf("WAL defaults = %+v", c)
	}
	if c.WALGroupCommit() != 2*time.Millisecond || c.SnapshotInterval() != 5*time.Minute {
		t.Fatalf("durations = %v / %v", c.WALGroupCommit(), c.SnapshotInterval())
	}
}

func TestCoordinatorWALValidation(t *testing.T) {
	c := Coordinator{WALGroupCommitMS: -1}
	if err := c.Validate(); err == nil {
		t.Fatal("negative wal_group_commit_ms accepted")
	}
	c = Coordinator{SnapshotIntervalSec: -5}
	if err := c.Validate(); err == nil {
		t.Fatal("negative snapshot_interval_sec accepted")
	}
	c = Coordinator{WALDir: "/var/lib/gpunion/wal", WALGroupCommitMS: 10, SnapshotIntervalSec: 60}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.WALGroupCommitMS != 10 || c.SnapshotIntervalSec != 60 {
		t.Fatalf("explicit values clobbered: %+v", c)
	}
}

func TestCoordinatorParseWALFields(t *testing.T) {
	c, err := ParseCoordinator(strings.NewReader(
		`{"wal_dir": "/data/wal", "wal_group_commit_ms": 5, "snapshot_interval_sec": 120}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.WALDir != "/data/wal" || c.WALGroupCommitMS != 5 || c.SnapshotIntervalSec != 120 {
		t.Fatalf("parsed = %+v", c)
	}
}
