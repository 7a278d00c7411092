package container

import (
	"errors"
	"fmt"
	"sync"

	"gpunion/internal/gpu"
)

// Errors returned by the runtime.
var (
	ErrNoGPUAvailable = errors.New("container: no GPU satisfies the request")
	ErrAlreadyExists  = errors.New("container: id already holds a GPU")
	ErrNotFound       = errors.New("container: id holds no GPU")
)

// Resources are the device requirements of a container.
type Resources struct {
	// GPUMemoryMiB is the device memory the workload needs; the runtime
	// binds a GPU with at least this much.
	GPUMemoryMiB int64 `json:"gpu_memory_mib"`
	// MinCapability is the minimum CUDA compute capability required.
	MinCapability gpu.ComputeCapability `json:"min_capability"`
}

// Spec describes a container to bind.
type Spec struct {
	// ID is the caller-chosen container identifier; it names the holder
	// of the bound GPU.
	ID string `json:"id"`
	// ImageName references an image in the runtime's store.
	ImageName string `json:"image_name"`
	// Resources are the GPU requirements.
	Resources Resources `json:"resources"`
}

// Runtime admits a container's image and binds the container to one of
// the node's GPUs. The devices' holders are its only state: what runs
// on the node is the agent's to record.
type Runtime struct {
	// mu makes finding a free device and allocating it one step.
	mu        sync.Mutex
	images    *ImageStore
	inventory *gpu.Inventory
}

// NewRuntime creates a runtime over the node's images and GPU inventory.
func NewRuntime(images *ImageStore, inv *gpu.Inventory) *Runtime {
	return &Runtime{images: images, inventory: inv}
}

// Inventory exposes the node's GPU inventory (used by telemetry).
func (r *Runtime) Inventory() *gpu.Inventory { return r.inventory }

// Bind admits the spec's image and binds the first free GPU, in
// inventory order, with the memory and capability the spec asks for. A
// container holds at most one GPU.
func (r *Runtime) Bind(spec Spec) (*gpu.Device, error) {
	if spec.ID == "" {
		return nil, errors.New("container: empty container id")
	}
	if _, err := r.images.Admit(spec.ImageName); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held(spec.ID) != nil {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyExists, spec.ID)
	}
	res := spec.Resources
	dev := r.inventory.FindFree(res.GPUMemoryMiB, res.MinCapability)
	if dev == nil {
		return nil, fmt.Errorf("%w: need %d MiB, capability >= %s",
			ErrNoGPUAvailable, res.GPUMemoryMiB, res.MinCapability)
	}
	if err := dev.Allocate(spec.ID, res.GPUMemoryMiB); err != nil {
		return nil, err
	}
	return dev, nil
}

// Release frees the GPU the container holds.
func (r *Runtime) Release(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	dev := r.held(id)
	if dev == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return dev.Release(id)
}

// held returns the device the container holds, or nil.
func (r *Runtime) held(id string) *gpu.Device {
	for _, d := range r.inventory.Devices() {
		if d.AllocatedTo() == id {
			return d
		}
	}
	return nil
}
