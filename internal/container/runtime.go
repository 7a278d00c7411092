package container

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gpunion/internal/gpu"
)

// Errors returned by the runtime.
var (
	ErrNotFound       = errors.New("container: container not found")
	ErrBadTransition  = errors.New("container: invalid lifecycle transition")
	ErrNoGPUAvailable = errors.New("container: no GPU satisfies the request")
	ErrAlreadyExists  = errors.New("container: id already exists")
)

// State is a container lifecycle state. Transitions follow the OCI
// lifecycle extended with the checkpoint states GPUnion needs.
type State string

// Lifecycle states.
const (
	Created       State = "created"
	Running       State = "running"
	Checkpointing State = "checkpointing"
	Exited        State = "exited" // terminated normally or stopped
	Killed        State = "killed" // terminated by the kill-switch
)

// Mode distinguishes the two execution modes of §3.3.
type Mode string

// Execution modes.
const (
	// Interactive provisions a Jupyter-style research environment.
	Interactive Mode = "interactive"
	// Batch runs an arbitrary entrypoint to completion.
	Batch Mode = "batch"
)

// Resources are the device requirements of a container.
type Resources struct {
	// GPUMemoryMiB is the device memory the workload needs; the runtime
	// binds a GPU with at least this much.
	GPUMemoryMiB int64 `json:"gpu_memory_mib"`
	// MinCapability is the minimum CUDA compute capability required.
	MinCapability gpu.ComputeCapability `json:"min_capability"`
}

// Spec describes a container to create.
type Spec struct {
	// ID is the caller-chosen container identifier.
	ID string `json:"id"`
	// ImageName references an image in the runtime's store.
	ImageName string `json:"image_name"`
	// Mode selects interactive or batch execution.
	Mode Mode `json:"mode"`
	// Entrypoint is the command for batch mode; interactive mode ignores
	// it and provisions the notebook server.
	Entrypoint []string `json:"entrypoint,omitempty"`
	// Resources are the GPU requirements.
	Resources Resources `json:"resources"`
}

// Container is a live (or exited) container instance.
type Container struct {
	mu        sync.Mutex
	spec      Spec
	state     State
	device    *gpu.Device // bound GPU, nil after release
	deviceID  string      // retained for status after release
	createdAt time.Time
	startedAt time.Time
	exitedAt  time.Time
}

// ID returns the container identifier.
func (c *Container) ID() string { return c.spec.ID }

// State returns the current lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Mode returns the execution mode.
func (c *Container) Mode() Mode { return c.spec.Mode }

// GPUDeviceID returns the bound device's local ID ("" if none was bound).
func (c *Container) GPUDeviceID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deviceID
}

// Runtime is the node-local container engine. It owns the node's GPU
// inventory and enforces image admission on every create.
type Runtime struct {
	mu         sync.Mutex
	images     *ImageStore
	inventory  *gpu.Inventory
	containers map[string]*Container
}

// NewRuntime creates a runtime over the node's images and GPU inventory.
func NewRuntime(images *ImageStore, inv *gpu.Inventory) *Runtime {
	return &Runtime{
		images:     images,
		inventory:  inv,
		containers: make(map[string]*Container),
	}
}

// Inventory exposes the node's GPU inventory (used by telemetry).
func (r *Runtime) Inventory() *gpu.Inventory { return r.inventory }

// Create admits the image, binds a GPU satisfying the spec, and returns
// the container in Created state.
func (r *Runtime) Create(spec Spec, now time.Time) (*Container, error) {
	if spec.ID == "" {
		return nil, errors.New("container: empty container id")
	}
	if spec.Mode != Interactive && spec.Mode != Batch {
		return nil, fmt.Errorf("container: unknown mode %q", spec.Mode)
	}
	if _, err := r.images.Admit(spec.ImageName); err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.containers[spec.ID]; exists {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyExists, spec.ID)
	}
	var dev *gpu.Device
	if spec.Resources.GPUMemoryMiB > 0 {
		dev = r.inventory.FindFree(spec.Resources.GPUMemoryMiB, spec.Resources.MinCapability)
		if dev == nil {
			return nil, fmt.Errorf("%w: need %d MiB, capability >= %s",
				ErrNoGPUAvailable, spec.Resources.GPUMemoryMiB, spec.Resources.MinCapability)
		}
		if err := dev.Allocate(spec.ID, spec.Resources.GPUMemoryMiB); err != nil {
			return nil, err
		}
	}

	c := &Container{
		spec:      spec,
		state:     Created,
		device:    dev,
		createdAt: now,
	}
	if dev != nil {
		c.deviceID = dev.ID
	}
	r.containers[spec.ID] = c
	return c, nil
}

// Get returns a container by ID.
func (r *Runtime) Get(id string) (*Container, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c, nil
}

// List returns container IDs, sorted.
func (r *Runtime) List() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.containers))
	for id := range r.containers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Start transitions Created → Running.
func (r *Runtime) Start(id string, now time.Time) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return c.transition(Created, Running, func() { c.startedAt = now })
}

// BeginCheckpoint transitions Running → Checkpointing. The workload is
// quiesced while state is captured.
func (r *Runtime) BeginCheckpoint(id string) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return c.transition(Running, Checkpointing, nil)
}

// EndCheckpoint transitions Checkpointing → Running.
func (r *Runtime) EndCheckpoint(id string) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return c.transition(Checkpointing, Running, nil)
}

// Stop terminates the container gracefully, releasing its GPU. Valid
// from any non-terminal state.
func (r *Runtime) Stop(id string, now time.Time) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return c.terminate(Exited, now)
}

// Kill immediately terminates the container (kill-switch path). Valid
// from any non-terminal state, including Created.
func (r *Runtime) Kill(id string, now time.Time) error {
	c, err := r.Get(id)
	if err != nil {
		return err
	}
	return c.terminate(Killed, now)
}

// Remove deletes a terminal container and releases its host resources.
func (r *Runtime) Remove(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	st := c.State()
	if st != Exited && st != Killed {
		return fmt.Errorf("%w: remove from %s", ErrBadTransition, st)
	}
	delete(r.containers, id)
	return nil
}

// KillAll kills every non-terminal container (emergency kill-switch) and
// returns the IDs killed.
func (r *Runtime) KillAll(now time.Time) []string {
	var killed []string
	for _, id := range r.List() {
		c, err := r.Get(id)
		if err != nil {
			continue
		}
		st := c.State()
		if st == Exited || st == Killed {
			continue
		}
		if err := r.Kill(id, now); err == nil {
			killed = append(killed, id)
		}
	}
	return killed
}

// transition performs a guarded single-source state change.
func (c *Container) transition(from, to State, onOK func()) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != from {
		return fmt.Errorf("%w: %s → %s (currently %s)", ErrBadTransition, from, to, c.state)
	}
	c.state = to
	if onOK != nil {
		onOK()
	}
	return nil
}

// terminate moves the container to a terminal state from any live state
// and releases the GPU binding.
func (c *Container) terminate(to State, now time.Time) error {
	c.mu.Lock()
	if c.state == Exited || c.state == Killed {
		c.mu.Unlock()
		return fmt.Errorf("%w: already %s", ErrBadTransition, c.state)
	}
	c.state = to
	c.exitedAt = now
	dev := c.device
	c.device = nil
	id := c.spec.ID
	c.mu.Unlock()
	if dev != nil {
		// Release errors indicate double-free bugs; surface loudly.
		if err := dev.Release(id); err != nil {
			return fmt.Errorf("container: releasing GPU on terminate: %w", err)
		}
	}
	return nil
}
