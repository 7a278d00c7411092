package container

import (
	"errors"
	"testing"
	"time"

	"gpunion/internal/gpu"
)

var t0 = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func newTestRuntime() *Runtime {
	inv := gpu.NewMixedInventory(gpu.RTX3090, gpu.A100)
	return NewRuntime(DefaultImages(), inv)
}

func batchSpec(id string, gpuMem int64) Spec {
	return Spec{
		ID:         id,
		ImageName:  "pytorch/pytorch:2.3-cuda12",
		Mode:       Batch,
		Entrypoint: []string{"python", "train.py"},
		Resources:  Resources{GPUMemoryMiB: gpuMem},
	}
}

func TestCreateBindsGPU(t *testing.T) {
	r := newTestRuntime()
	c, err := r.Create(batchSpec("c1", 20000), t0)
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != Created {
		t.Fatalf("state = %s", c.State())
	}
	if c.GPUDeviceID() != "gpu0" {
		t.Fatalf("bound device = %s, want gpu0", c.GPUDeviceID())
	}
}

func TestCreateLargeJobPicksBigGPU(t *testing.T) {
	r := newTestRuntime()
	c, err := r.Create(batchSpec("c1", 40000), t0) // only fits the A100
	if err != nil {
		t.Fatal(err)
	}
	if c.GPUDeviceID() != "gpu1" {
		t.Fatalf("device = %s, want gpu1 (A100)", c.GPUDeviceID())
	}
}

func TestCreateCPUOnly(t *testing.T) {
	r := newTestRuntime()
	spec := batchSpec("c1", 0)
	c, err := r.Create(spec, t0)
	if err != nil {
		t.Fatal(err)
	}
	if c.GPUDeviceID() != "" {
		t.Fatal("CPU-only container bound a GPU")
	}
}

func TestCreateNoGPUAvailable(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Create(batchSpec("c1", 20000), t0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(batchSpec("c2", 40000), t0); err != nil {
		t.Fatal(err) // takes the A100
	}
	_, err := r.Create(batchSpec("c3", 20000), t0)
	if !errors.Is(err, ErrNoGPUAvailable) {
		t.Fatalf("err = %v, want ErrNoGPUAvailable", err)
	}
}

func TestCreateUntrustedImageRejected(t *testing.T) {
	r := newTestRuntime()
	spec := batchSpec("c1", 100)
	spec.ImageName = "evil/backdoor:latest"
	if _, err := r.Create(spec, t0); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("err = %v, want ErrImageNotFound", err)
	}
}

func TestCreateDuplicateID(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Create(batchSpec("c1", 0), t0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(batchSpec("c1", 0), t0); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("err = %v, want ErrAlreadyExists", err)
	}
}

func TestCreateEmptyIDAndBadMode(t *testing.T) {
	r := newTestRuntime()
	spec := batchSpec("", 0)
	if _, err := r.Create(spec, t0); err == nil {
		t.Fatal("empty id accepted")
	}
	spec = batchSpec("c1", 0)
	spec.Mode = "warp"
	if _, err := r.Create(spec, t0); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestRemoveLiveContainerRejected(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Create(batchSpec("c1", 0), t0); err != nil {
		t.Fatal(err)
	}
	if err := r.Remove("c1"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("err = %v, want ErrBadTransition", err)
	}
}

func TestLifecycleHappyPath(t *testing.T) {
	r := newTestRuntime()
	c, err := r.Create(batchSpec("c1", 1000), t0)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		op   func() error
		want State
	}{
		{func() error { return r.Start("c1", t0) }, Running},
		{func() error { return r.BeginCheckpoint("c1") }, Checkpointing},
		{func() error { return r.EndCheckpoint("c1") }, Running},
		{func() error { return r.Stop("c1", t0.Add(time.Hour)) }, Exited},
	}
	for i, s := range steps {
		if err := s.op(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if c.State() != s.want {
			t.Fatalf("step %d: state = %s, want %s", i, c.State(), s.want)
		}
	}
}

func TestInvalidTransitions(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Create(batchSpec("c1", 0), t0); err != nil {
		t.Fatal(err)
	}
	// Created → BeginCheckpoint is invalid.
	if err := r.BeginCheckpoint("c1"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("BeginCheckpoint from Created err = %v", err)
	}
	// Created → EndCheckpoint is invalid.
	if err := r.EndCheckpoint("c1"); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("EndCheckpoint from Created err = %v", err)
	}
	if err := r.Start("c1", t0); err != nil {
		t.Fatal(err)
	}
	// Running → Start again is invalid.
	if err := r.Start("c1", t0); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double Start err = %v", err)
	}
}

func TestStopReleasesGPU(t *testing.T) {
	r := newTestRuntime()
	c, err := r.Create(batchSpec("c1", 20000), t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start("c1", t0); err != nil {
		t.Fatal(err)
	}
	dev, _ := r.Inventory().Device(c.GPUDeviceID())
	if dev.Free() {
		t.Fatal("device free while container running")
	}
	if err := r.Stop("c1", t0); err != nil {
		t.Fatal(err)
	}
	if !dev.Free() {
		t.Fatal("device not released on Stop")
	}
	// Device ID is retained for status reporting.
	if c.GPUDeviceID() != "gpu0" {
		t.Fatalf("GPUDeviceID after stop = %q", c.GPUDeviceID())
	}
}

func TestKillFromAnyLiveState(t *testing.T) {
	r := newTestRuntime()
	for i, setup := range []func(id string) error{
		func(id string) error { return nil },                                        // Created
		func(id string) error { return r.Start(id, t0) },                            // Running
		func(id string) error { _ = r.Start(id, t0); return r.BeginCheckpoint(id) }, // Checkpointing
	} {
		id := string(rune('a' + i))
		if _, err := r.Create(batchSpec(id, 0), t0); err != nil {
			t.Fatal(err)
		}
		if err := setup(id); err != nil {
			t.Fatal(err)
		}
		if err := r.Kill(id, t0); err != nil {
			t.Fatalf("Kill from setup %d: %v", i, err)
		}
		c, _ := r.Get(id)
		if c.State() != Killed {
			t.Fatalf("state = %s, want %s", c.State(), Killed)
		}
	}
}

func TestKillTerminalFails(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Create(batchSpec("c1", 0), t0); err != nil {
		t.Fatal(err)
	}
	if err := r.Kill("c1", t0); err != nil {
		t.Fatal(err)
	}
	if err := r.Kill("c1", t0); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("double Kill err = %v", err)
	}
	if err := r.Stop("c1", t0); !errors.Is(err, ErrBadTransition) {
		t.Fatalf("Stop after Kill err = %v", err)
	}
}

func TestKillAll(t *testing.T) {
	r := newTestRuntime()
	for _, id := range []string{"c1", "c2"} {
		if _, err := r.Create(batchSpec(id, 1000), t0); err != nil {
			t.Fatal(err)
		}
		if err := r.Start(id, t0); err != nil {
			t.Fatal(err)
		}
	}
	// One already exited: must not be re-killed.
	if err := r.Stop("c2", t0); err != nil {
		t.Fatal(err)
	}
	killed := r.KillAll(t0)
	if len(killed) != 1 || killed[0] != "c1" {
		t.Fatalf("KillAll = %v, want [c1]", killed)
	}
	if n := running(r); n != 0 {
		t.Fatalf("running = %d after KillAll", n)
	}
}

func TestInteractiveMode(t *testing.T) {
	r := newTestRuntime()
	spec := Spec{
		ID:        "sess1",
		ImageName: "gpunion/jupyter-dl:latest",
		Mode:      Interactive,
		Resources: Resources{GPUMemoryMiB: 8000},
	}
	c, err := r.Create(spec, t0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Mode() != Interactive {
		t.Fatalf("mode = %s", c.Mode())
	}
}

// running counts the runtime's containers in the Running state.
func running(r *Runtime) int {
	n := 0
	for _, id := range r.List() {
		if c, err := r.Get(id); err == nil && c.State() == Running {
			n++
		}
	}
	return n
}

func TestListAndRunningCounts(t *testing.T) {
	r := newTestRuntime()
	for _, id := range []string{"b", "a"} {
		if _, err := r.Create(batchSpec(id, 0), t0); err != nil {
			t.Fatal(err)
		}
	}
	ids := r.List()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("List = %v", ids)
	}
	if n := running(r); n != 0 {
		t.Fatalf("running = %d", n)
	}
	if err := r.Start("a", t0); err != nil {
		t.Fatal(err)
	}
	if n := running(r); n != 1 {
		t.Fatalf("running = %d, want 1", n)
	}
}

func TestGetMissing(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}
