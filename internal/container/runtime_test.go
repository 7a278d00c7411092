package container

import (
	"errors"
	"testing"

	"gpunion/internal/gpu"
)

func newTestRuntime() *Runtime {
	inv := gpu.NewMixedInventory(gpu.RTX3090, gpu.A100)
	return NewRuntime(DefaultImages(), inv)
}

func batchSpec(id string, gpuMem int64) Spec {
	return Spec{
		ID:        id,
		ImageName: "pytorch/pytorch:2.3-cuda12",
		Resources: Resources{GPUMemoryMiB: gpuMem},
	}
}

func TestCreateBindsGPU(t *testing.T) {
	r := newTestRuntime()
	dev, err := r.Bind(batchSpec("c1", 20000))
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID != "gpu0" || dev.AllocatedTo() != "c1" {
		t.Fatalf("bound %s held by %q, want gpu0 held by c1", dev.ID, dev.AllocatedTo())
	}
}

func TestCreateLargeJobPicksBigGPU(t *testing.T) {
	r := newTestRuntime()
	dev, err := r.Bind(batchSpec("c1", 40000)) // only fits the A100
	if err != nil {
		t.Fatal(err)
	}
	if dev.ID != "gpu1" {
		t.Fatalf("device = %s, want gpu1 (A100)", dev.ID)
	}
}

func TestCreateNoGPUAvailable(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Bind(batchSpec("c1", 20000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Bind(batchSpec("c2", 40000)); err != nil {
		t.Fatal(err) // takes the A100
	}
	_, err := r.Bind(batchSpec("c3", 20000))
	if !errors.Is(err, ErrNoGPUAvailable) {
		t.Fatalf("err = %v, want ErrNoGPUAvailable", err)
	}
}

func TestCreateUntrustedImageRejected(t *testing.T) {
	r := newTestRuntime()
	spec := batchSpec("c1", 100)
	spec.ImageName = "evil/backdoor:latest"
	if _, err := r.Bind(spec); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("err = %v, want ErrImageNotFound", err)
	}
	for _, d := range r.Inventory().Devices() {
		if !d.Free() {
			t.Fatalf("a refused image bound %s", d.ID)
		}
	}
}

// TestCreateDuplicateID: a container holds one GPU, never two.
func TestCreateDuplicateID(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Bind(batchSpec("c1", 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Bind(batchSpec("c1", 1000)); !errors.Is(err, ErrAlreadyExists) {
		t.Fatalf("err = %v, want ErrAlreadyExists", err)
	}
	if r.Inventory().Devices()[1].AllocatedTo() != "" {
		t.Fatal("a second bind of c1 took the A100")
	}
}

func TestCreateEmptyIDRejected(t *testing.T) {
	r := newTestRuntime()
	if _, err := r.Bind(batchSpec("", 1000)); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestStopReleasesGPU(t *testing.T) {
	r := newTestRuntime()
	dev, err := r.Bind(batchSpec("c1", 20000))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Release("c1"); err != nil {
		t.Fatal(err)
	}
	if !dev.Free() {
		t.Fatal("device not released")
	}
	// The freed device is the first free one again.
	if again, err := r.Bind(batchSpec("c2", 20000)); err != nil || again != dev {
		t.Fatalf("rebind = %v, %v; want %s", again, err, dev.ID)
	}
}

// TestReleaseUnheldFails: releasing a container that holds no GPU (never
// bound, or already released) is an error, so a double release shows.
func TestReleaseUnheldFails(t *testing.T) {
	r := newTestRuntime()
	if err := r.Release("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of an unknown id: err = %v, want ErrNotFound", err)
	}
	if _, err := r.Bind(batchSpec("c1", 1000)); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("c1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Release("c1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second release: err = %v, want ErrNotFound", err)
	}
}
