package gpu

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by device allocation operations.
var (
	ErrAlreadyAllocated   = errors.New("gpu: device already allocated")
	ErrNotAllocated       = errors.New("gpu: device not allocated")
	ErrInsufficientMemory = errors.New("gpu: insufficient device memory")
	ErrUnknownDevice      = errors.New("gpu: unknown device")
)

// Device is a single simulated GPU board. A device can be exclusively
// allocated to one workload at a time (GPUnion's containers get whole-GPU
// passthrough, matching NVIDIA_VISIBLE_DEVICES semantics in the paper).
type Device struct {
	// ID is the node-local index-based identifier, e.g. "gpu0".
	ID   string
	Spec Spec

	mu          sync.Mutex
	allocatedTo string // container ID, "" if free
	usedMemMiB  int64
	utilization float64 // 0..1, set by the attached workload
}

// NewDevice creates a free device with the given local ID and spec.
func NewDevice(id string, spec Spec) *Device {
	return &Device{ID: id, Spec: spec}
}

// Allocate exclusively assigns the device to a container. It fails if the
// device is busy or the requested memory exceeds capacity.
func (d *Device) Allocate(containerID string, memMiB int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocatedTo != "" {
		return fmt.Errorf("%w: held by %s", ErrAlreadyAllocated, d.allocatedTo)
	}
	if memMiB > d.Spec.MemoryMiB {
		return fmt.Errorf("%w: requested %d MiB > capacity %d MiB",
			ErrInsufficientMemory, memMiB, d.Spec.MemoryMiB)
	}
	d.allocatedTo = containerID
	d.usedMemMiB = memMiB
	return nil
}

// Release frees the device. Releasing a free device is an error so that
// double-release bugs surface in tests.
func (d *Device) Release(containerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.allocatedTo == "" {
		return ErrNotAllocated
	}
	if d.allocatedTo != containerID {
		return fmt.Errorf("%w: held by %s, released by %s",
			ErrAlreadyAllocated, d.allocatedTo, containerID)
	}
	d.allocatedTo = ""
	d.usedMemMiB = 0
	d.utilization = 0
	return nil
}

// SetUtilization records the compute utilization (0..1) reported by the
// attached workload; values are clamped.
func (d *Device) SetUtilization(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	d.mu.Lock()
	d.utilization = u
	d.mu.Unlock()
}

// SetUsedMemory updates the memory footprint of the attached workload,
// clamped to capacity.
func (d *Device) SetUsedMemory(memMiB int64) {
	if memMiB < 0 {
		memMiB = 0
	}
	if memMiB > d.Spec.MemoryMiB {
		memMiB = d.Spec.MemoryMiB
	}
	d.mu.Lock()
	d.usedMemMiB = memMiB
	d.mu.Unlock()
}

// AllocatedTo returns the holding container ID, or "" if free.
func (d *Device) AllocatedTo() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocatedTo
}

// Free reports whether the device is unallocated.
func (d *Device) Free() bool { return d.AllocatedTo() == "" }

// Telemetry returns a point-in-time PyNVML-style reading. Temperature and
// power are derived from utilization with a simple thermal/power model:
// idle values at 0 utilization rising linearly to limits at full load.
func (d *Device) Telemetry() Telemetry {
	d.mu.Lock()
	util := d.utilization
	mem := d.usedMemMiB
	holder := d.allocatedTo
	d.mu.Unlock()

	const (
		idleTempC = 34.0
		maxTempC  = 82.0
	)
	return Telemetry{
		DeviceID:     d.ID,
		Model:        d.Spec.Model,
		Utilization:  util,
		UsedMemMiB:   mem,
		TotalMemMiB:  d.Spec.MemoryMiB,
		TemperatureC: idleTempC + util*(maxTempC-idleTempC),
		PowerW:       d.Spec.IdlePowerW + util*(d.Spec.PowerLimitW-d.Spec.IdlePowerW),
		Allocated:    holder != "",
	}
}

// Telemetry is a single device reading, mirroring the fields the paper's
// agent collects through PyNVML (§3.4).
type Telemetry struct {
	DeviceID     string  `json:"device_id"`
	Model        string  `json:"model"`
	Utilization  float64 `json:"utilization"` // 0..1
	UsedMemMiB   int64   `json:"used_mem_mib"`
	TotalMemMiB  int64   `json:"total_mem_mib"`
	TemperatureC float64 `json:"temperature_c"`
	PowerW       float64 `json:"power_w"`
	Allocated    bool    `json:"allocated"`
}

// Inventory is the set of devices installed in one provider node.
type Inventory struct {
	mu      sync.Mutex
	devices []*Device
	byID    map[string]*Device
}

// NewInventory builds an inventory of n identical devices ("gpu0".."gpuN-1").
func NewInventory(spec Spec, n int) *Inventory {
	inv := &Inventory{byID: make(map[string]*Device, n)}
	for i := 0; i < n; i++ {
		d := NewDevice(fmt.Sprintf("gpu%d", i), spec)
		inv.devices = append(inv.devices, d)
		inv.byID[d.ID] = d
	}
	return inv
}

// NewMixedInventory builds an inventory from explicit specs, one device
// per spec, named "gpu0".."gpuN-1" in order.
func NewMixedInventory(specs ...Spec) *Inventory {
	inv := &Inventory{byID: make(map[string]*Device, len(specs))}
	for i, s := range specs {
		d := NewDevice(fmt.Sprintf("gpu%d", i), s)
		inv.devices = append(inv.devices, d)
		inv.byID[d.ID] = d
	}
	return inv
}

// Device returns the device with the given local ID.
func (inv *Inventory) Device(id string) (*Device, error) {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	d, ok := inv.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDevice, id)
	}
	return d, nil
}

// Devices returns all devices in index order.
func (inv *Inventory) Devices() []*Device {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	out := make([]*Device, len(inv.devices))
	copy(out, inv.devices)
	return out
}

// Len reports the number of installed devices.
func (inv *Inventory) Len() int {
	inv.mu.Lock()
	defer inv.mu.Unlock()
	return len(inv.devices)
}

// FindFree returns a free device satisfying the memory and capability
// requirements, or nil if none is available. Devices are scanned in index
// order, so allocation is deterministic.
func (inv *Inventory) FindFree(memMiB int64, min ComputeCapability) *Device {
	for _, d := range inv.Devices() {
		if !d.Free() {
			continue
		}
		if d.Spec.MemoryMiB < memMiB {
			continue
		}
		if !d.Spec.Capability.AtLeast(min) {
			continue
		}
		return d
	}
	return nil
}

// Snapshot returns telemetry for every installed device.
func (inv *Inventory) Snapshot() []Telemetry {
	devs := inv.Devices()
	out := make([]Telemetry, 0, len(devs))
	for _, d := range devs {
		out = append(out, d.Telemetry())
	}
	return out
}
