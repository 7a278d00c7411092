// Package config parses the JSON configuration files of GPUnion's two
// daemons. Lightweight integration is a design principle (§1): one small
// file per machine, sane defaults for everything else.
package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"gpunion/internal/gpu"
)

// Coordinator is the central daemon's configuration.
type Coordinator struct {
	// Listen is the HTTP bind address, e.g. ":8080".
	Listen string `json:"listen"`
	// HeartbeatIntervalSec is the agent reporting period (default 10).
	HeartbeatIntervalSec int `json:"heartbeat_interval_sec"`
	// MissedThreshold marks nodes lost after this many silent
	// intervals (default 3).
	MissedThreshold int `json:"missed_threshold"`
	// Strategy is "round-robin" (default), "best-fit" or "least-loaded".
	Strategy string `json:"strategy"`
	// SchedulerBatchSize caps how many pending requests one scheduling
	// cycle drains as a batch (default 32).
	SchedulerBatchSize int `json:"scheduler_batch_size"`
	// WALDir, when set, enables durable persistence: every database
	// mutation is group-committed to a write-ahead log in this
	// directory, a background snapshotter checkpoints the store, and
	// the daemon recovers nodes/jobs/allocations from it on boot.
	WALDir string `json:"wal_dir"`
	// WALGroupCommitMS is the longest a commit waits for company, in
	// milliseconds: a commit group that has formed is written at once,
	// a commit that stays alone waits this long (see
	// wal.Options.GroupWindow). Default 2; 0 also means the default —
	// use the internal/wal API directly for pure natural batching.
	WALGroupCommitMS int `json:"wal_group_commit_ms"`
	// SnapshotIntervalSec is the background checkpoint period in
	// seconds when WALDir is set (default 300).
	SnapshotIntervalSec int `json:"snapshot_interval_sec"`
}

// HeartbeatInterval returns the configured interval as a duration.
func (c Coordinator) HeartbeatInterval() time.Duration {
	return time.Duration(c.HeartbeatIntervalSec) * time.Second
}

// WALGroupCommit returns the group-commit window — the longest wait for
// company — as a duration.
func (c Coordinator) WALGroupCommit() time.Duration {
	return time.Duration(c.WALGroupCommitMS) * time.Millisecond
}

// SnapshotInterval returns the checkpoint period as a duration.
func (c Coordinator) SnapshotInterval() time.Duration {
	return time.Duration(c.SnapshotIntervalSec) * time.Second
}

// Validate applies defaults and checks invariants.
func (c *Coordinator) Validate() error {
	if c.Listen == "" {
		c.Listen = ":8080"
	}
	if c.HeartbeatIntervalSec <= 0 {
		c.HeartbeatIntervalSec = 10
	}
	if c.MissedThreshold <= 0 {
		c.MissedThreshold = 3
	}
	if c.SchedulerBatchSize <= 0 {
		c.SchedulerBatchSize = 32
	}
	switch c.Strategy {
	case "":
		c.Strategy = "round-robin"
	case "round-robin", "best-fit", "least-loaded":
	default:
		return fmt.Errorf("config: unknown strategy %q", c.Strategy)
	}
	if c.WALGroupCommitMS < 0 {
		return fmt.Errorf("config: wal_group_commit_ms is negative (%d)", c.WALGroupCommitMS)
	}
	if c.WALGroupCommitMS == 0 {
		c.WALGroupCommitMS = 2
	}
	if c.SnapshotIntervalSec < 0 {
		return fmt.Errorf("config: snapshot_interval_sec is negative (%d)", c.SnapshotIntervalSec)
	}
	if c.SnapshotIntervalSec == 0 {
		c.SnapshotIntervalSec = 300
	}
	return nil
}

// GPUEntry declares devices installed in a provider node.
type GPUEntry struct {
	// Model must name a catalog GPU ("RTX 3090", "RTX 4090", "A100",
	// "A6000").
	Model string `json:"model"`
	// Count is how many boards of this model are installed.
	Count int `json:"count"`
}

// Agent is the provider daemon's configuration.
type Agent struct {
	// CoordinatorURL is the central daemon's base URL.
	CoordinatorURL string `json:"coordinator_url"`
	// Listen is the agent's HTTP bind address, e.g. ":7070".
	Listen string `json:"listen"`
	// AdvertiseURL is the address the coordinator should dial back;
	// defaults to Listen's host and port over http, with 127.0.0.1 for
	// an empty or unspecified host (":7070", "0.0.0.0:7070").
	AdvertiseURL string `json:"advertise_url"`
	// GPUs inventories the node's devices.
	GPUs []GPUEntry `json:"gpus"`
	// Kernel is the host kernel version (informational).
	Kernel string `json:"kernel"`
	// CheckpointIntervalSec is the default ALC cadence (default 600).
	CheckpointIntervalSec int `json:"checkpoint_interval_sec"`
	// StorageBytes is scratch capacity offered to the platform.
	StorageBytes int64 `json:"storage_bytes"`
}

// Validate applies defaults and checks invariants.
func (a *Agent) Validate() error {
	if a.CoordinatorURL == "" {
		return errors.New("config: coordinator_url is required")
	}
	if a.Listen == "" {
		a.Listen = ":7070"
	}
	if a.AdvertiseURL == "" {
		host, port, err := net.SplitHostPort(a.Listen)
		if err != nil {
			return fmt.Errorf("config: listen address: %w", err)
		}
		if ip := net.ParseIP(host); host == "" || ip != nil && ip.IsUnspecified() {
			host = "127.0.0.1"
		}
		a.AdvertiseURL = "http://" + net.JoinHostPort(host, port)
	}
	if len(a.GPUs) == 0 {
		a.GPUs = []GPUEntry{{Model: "RTX 3090", Count: 1}}
	}
	for _, e := range a.GPUs {
		if _, ok := gpu.SpecByModel(e.Model); !ok {
			return fmt.Errorf("config: unknown GPU model %q", e.Model)
		}
		if e.Count <= 0 {
			return fmt.Errorf("config: GPU model %q has count %d", e.Model, e.Count)
		}
	}
	if a.Kernel == "" {
		a.Kernel = "5.15"
	}
	if a.CheckpointIntervalSec <= 0 {
		a.CheckpointIntervalSec = 600
	}
	if a.StorageBytes <= 0 {
		a.StorageBytes = 100 << 30
	}
	return nil
}

// MachineID is the node's identity: "node-" and the first 16 hex
// digits of the SHA-256 of AdvertiseURL (set it, or Validate, first).
// The advertise address is where the coordinator dials the node, so no
// two live agents share it, and an agent that restarts on the same
// address comes back as the same node. Changing the address makes a new
// node.
func (a Agent) MachineID() string {
	sum := sha256.Sum256([]byte(a.AdvertiseURL))
	return "node-" + hex.EncodeToString(sum[:8])
}

// Inventory expands the GPU entries into device specs.
func (a Agent) Inventory() ([]gpu.Spec, error) {
	var specs []gpu.Spec
	for _, e := range a.GPUs {
		spec, ok := gpu.SpecByModel(e.Model)
		if !ok {
			return nil, fmt.Errorf("config: unknown GPU model %q", e.Model)
		}
		for i := 0; i < e.Count; i++ {
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// LoadCoordinator reads and validates a coordinator config file.
func LoadCoordinator(path string) (Coordinator, error) {
	f, err := os.Open(path)
	if err != nil {
		return Coordinator{}, fmt.Errorf("config: opening %s: %w", path, err)
	}
	defer f.Close()
	c, err := ParseCoordinator(f)
	if err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// LoadAgent reads and validates an agent config file.
func LoadAgent(path string) (Agent, error) {
	f, err := os.Open(path)
	if err != nil {
		return Agent{}, fmt.Errorf("config: opening %s: %w", path, err)
	}
	defer f.Close()
	a, err := ParseAgent(f)
	if err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// ParseCoordinator decodes a coordinator config from a reader. A file
// that still sets the retired snapshot_path key is rejected rather than
// silently run without persistence.
func ParseCoordinator(r io.Reader) (Coordinator, error) {
	var raw struct {
		Coordinator
		SnapshotPath json.RawMessage `json:"snapshot_path"`
	}
	if err := json.NewDecoder(r).Decode(&raw); err != nil {
		return raw.Coordinator, fmt.Errorf("config: decoding coordinator config: %w", err)
	}
	if raw.SnapshotPath != nil {
		return raw.Coordinator, errors.New("config: snapshot_path is no longer supported (nothing reads or writes that file); set wal_dir for crash-safe persistence")
	}
	return raw.Coordinator, raw.Coordinator.Validate()
}

// ParseAgent decodes an agent config from a reader.
func ParseAgent(r io.Reader) (Agent, error) {
	var a Agent
	if err := json.NewDecoder(r).Decode(&a); err != nil {
		return a, fmt.Errorf("config: decoding agent config: %w", err)
	}
	return a, a.Validate()
}
