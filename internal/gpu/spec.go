// Package gpu models the GPU hardware that GPUnion schedules against.
//
// GPUnion itself never executes CUDA kernels: the platform allocates
// devices by attributes (memory capacity, compute capability), binds them
// to containers, and reads telemetry (utilization, memory, temperature,
// power) for monitoring and scheduling decisions. This package provides a
// parameterised device model that exercises exactly those code paths,
// standing in for PyNVML + physical boards in the paper's testbed.
package gpu

import "fmt"

// Architecture names a GPU micro-architecture family. Cross-architecture
// restore is the failure mode that rules out CRIU-style system
// checkpointing in the paper (§3.5), so architecture identity matters for
// migration planning and the ALC-vs-CRIU ablation.
type Architecture string

// Architectures present in the paper's campus deployment.
const (
	Ampere Architecture = "ampere" // RTX 3090, A100, A6000
	Ada    Architecture = "ada"    // RTX 4090
)

// ComputeCapability is the CUDA compute capability (major, minor).
type ComputeCapability struct {
	Major int `json:"major"`
	Minor int `json:"minor"`
}

// AtLeast reports whether c satisfies a job's minimum requirement.
func (c ComputeCapability) AtLeast(min ComputeCapability) bool {
	if c.Major != min.Major {
		return c.Major > min.Major
	}
	return c.Minor >= min.Minor
}

// String renders the capability in the conventional "8.6" form.
func (c ComputeCapability) String() string {
	return fmt.Sprintf("%d.%d", c.Major, c.Minor)
}

// Spec is the static description of a GPU model.
type Spec struct {
	// Model is the marketing name, e.g. "RTX 3090".
	Model string `json:"model"`
	// Arch is the micro-architecture family.
	Arch Architecture `json:"arch"`
	// MemoryMiB is the on-board memory capacity.
	MemoryMiB int64 `json:"memory_mib"`
	// Capability is the CUDA compute capability.
	Capability ComputeCapability `json:"capability"`
	// FP32TFLOPS is peak single-precision throughput, used by the
	// workload model to convert training steps into wall time.
	FP32TFLOPS float64 `json:"fp32_tflops"`
	// MemBandwidthGBs is memory bandwidth in GB/s.
	MemBandwidthGBs float64 `json:"mem_bandwidth_gbs"`
	// PowerLimitW is the board power limit; IdlePowerW the idle draw.
	PowerLimitW float64 `json:"power_limit_w"`
	IdlePowerW  float64 `json:"idle_power_w"`
}

// Catalog of the GPU models in the paper's deployment (8 workstations
// with one RTX 3090 each, one 8×4090 server, one 2×A100 server, one
// 4×A6000 server). Values are the public board specifications.
var (
	RTX3090 = Spec{
		Model: "RTX 3090", Arch: Ampere, MemoryMiB: 24576,
		Capability: ComputeCapability{8, 6}, FP32TFLOPS: 35.6,
		MemBandwidthGBs: 936, PowerLimitW: 350, IdlePowerW: 25,
	}
	RTX4090 = Spec{
		Model: "RTX 4090", Arch: Ada, MemoryMiB: 24576,
		Capability: ComputeCapability{8, 9}, FP32TFLOPS: 82.6,
		MemBandwidthGBs: 1008, PowerLimitW: 450, IdlePowerW: 22,
	}
	A100 = Spec{
		Model: "A100", Arch: Ampere, MemoryMiB: 81920,
		Capability: ComputeCapability{8, 0}, FP32TFLOPS: 19.5,
		MemBandwidthGBs: 2039, PowerLimitW: 400, IdlePowerW: 35,
	}
	A6000 = Spec{
		Model: "A6000", Arch: Ampere, MemoryMiB: 49152,
		Capability: ComputeCapability{8, 6}, FP32TFLOPS: 38.7,
		MemBandwidthGBs: 768, PowerLimitW: 300, IdlePowerW: 25,
	}
)

// SpecByModel looks up a catalog spec by model name.
func SpecByModel(model string) (Spec, bool) {
	switch model {
	case RTX3090.Model:
		return RTX3090, true
	case RTX4090.Model:
		return RTX4090, true
	case A100.Model:
		return A100, true
	case A6000.Model:
		return A6000, true
	}
	return Spec{}, false
}
