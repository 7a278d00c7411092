// Package checkpoint implements GPUnion's state-preservation layer.
//
// The cornerstone is application-level checkpointing (ALC, §3.5): the
// workload itself defines what constitutes recoverable state (model
// weights, optimizer state, current step), which makes checkpoints
// portable across heterogeneous GPU architectures — the property that
// rules out system-level CRIU snapshots in campus environments.
//
// The package provides:
//
//   - a page-granular MemoryImage model used to compute *incremental*
//     checkpoint sizes (only pages modified since the previous
//     checkpoint, plus file-system deltas, are transmitted — the §4
//     traffic analysis depends on this);
//   - the ALC checkpointer;
//   - a CRIU-model checkpointer reproducing the failure modes the paper
//     cites (no CUDA-context support, kernel-version pinning, no
//     cross-architecture restore) for the ALC-vs-CRIU ablation;
//   - a Store that persists checkpoint metadata and resolves the
//     restore chain (last full checkpoint + subsequent increments).
package checkpoint

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"gpunion/internal/gpu"
)

// Errors returned by checkpoint operations.
var (
	ErrCUDAContext    = errors.New("checkpoint: CRIU cannot snapshot live CUDA contexts")
	ErrKernelMismatch = errors.New("checkpoint: CRIU restore requires matching kernel version")
	ErrArchMismatch   = errors.New("checkpoint: CRIU image is not portable across GPU architectures")
	ErrNoCheckpoint   = errors.New("checkpoint: no checkpoint available")
	ErrBadChain       = errors.New("checkpoint: broken incremental chain")
	ErrCorrupt        = errors.New("checkpoint: corrupt checkpoint frame")
)

// Progress is the application-defined recoverable state marker: how far
// the workload has advanced. Restoring a checkpoint resumes from exactly
// this point; work after the checkpoint is lost.
type Progress struct {
	// Step is the training step (or generic unit of work) completed.
	Step int64 `json:"step"`
	// Epoch is the enclosing epoch, informational.
	Epoch int `json:"epoch"`
}

// MemoryImage models a workload's mutable state at page granularity.
// Training loops touch a characteristic fraction of their state between
// checkpoints; incremental checkpoints ship only those dirty pages.
type MemoryImage struct {
	mu       sync.Mutex
	pageSize int64
	numPages int
	// dirtyPages counts the dirty pages. TouchFraction dirties a prefix,
	// so the dirty set is always pages [0, dirtyPages).
	dirtyPages int
	// fileDelta accumulates file-system bytes written since the last
	// checkpoint (logs, samples, metrics).
	fileDelta int64
}

// NewMemoryImage creates an image of numPages pages of pageSize bytes.
func NewMemoryImage(numPages int, pageSize int64) *MemoryImage {
	if numPages < 0 {
		numPages = 0
	}
	if pageSize <= 0 {
		pageSize = 4096
	}
	return &MemoryImage{pageSize: pageSize, numPages: numPages}
}

// TotalBytes is the full image size.
func (m *MemoryImage) TotalBytes() int64 {
	return int64(m.numPages) * m.pageSize
}

// TouchFraction marks the first ceil(frac·numPages) pages dirty,
// modelling a training step that rewrites a characteristic share of
// state (optimizer moments, activations). frac is clamped to [0,1].
func (m *MemoryImage) TouchFraction(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac * float64(m.numPages))
	if frac > 0 && n == 0 {
		n = 1
	}
	n = min(n, m.numPages)
	m.mu.Lock()
	m.dirtyPages = max(m.dirtyPages, n)
	m.mu.Unlock()
}

// AppendFileDelta records bytes written to the file system since the
// last checkpoint.
func (m *MemoryImage) AppendFileDelta(bytes int64) {
	if bytes <= 0 {
		return
	}
	m.mu.Lock()
	m.fileDelta += bytes
	m.mu.Unlock()
}

// DirtyBytes returns the current incremental payload: dirty pages plus
// file deltas.
func (m *MemoryImage) DirtyBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.dirtyPages)*m.pageSize + m.fileDelta
}

// markClean resets the dirty set and file delta (called after a capture).
func (m *MemoryImage) markClean() {
	m.mu.Lock()
	m.dirtyPages = 0
	m.fileDelta = 0
	m.mu.Unlock()
}

// Env describes the execution environment a checkpoint was captured in.
// The CRIU model's portability failures key off these fields.
type Env struct {
	// KernelVersion is the host kernel, e.g. "5.15".
	KernelVersion string `json:"kernel_version"`
	// GPUArch is the architecture of the bound GPU.
	GPUArch gpu.Architecture `json:"gpu_arch"`
	// HasCUDAContext reports whether the workload holds a live CUDA
	// context (true for anything actually using the GPU).
	HasCUDAContext bool `json:"has_cuda_context"`
	// GPUMemMiB is the device memory in use, which a system-level
	// snapshot would also have to capture.
	GPUMemMiB int64 `json:"gpu_mem_mib"`
}

// Source is everything a checkpointer needs to capture a workload.
type Source struct {
	JobID    string
	Image    *MemoryImage
	Progress Progress
	Env      Env
}

// Checkpoint is one captured snapshot. Payload bytes are modelled (the
// platform's decisions depend on sizes and metadata, not the literal
// tensor data).
type Checkpoint struct {
	JobID string `json:"job_id"`
	// Seq is the per-job sequence number, starting at 1.
	Seq int `json:"seq"`
	// Incremental marks a delta checkpoint; BaseSeq is the snapshot it
	// builds on (the previous Seq).
	Incremental bool `json:"incremental"`
	BaseSeq     int  `json:"base_seq"`
	// Bytes is the payload size that must be stored and shipped.
	Bytes int64 `json:"bytes"`
	// Progress is the application state marker restored on recovery.
	Progress Progress `json:"progress"`
	// Env is the capture environment (used for CRIU restore checks).
	Env Env `json:"env"`
	// Mechanism is the checkpointer that produced this snapshot.
	Mechanism string `json:"mechanism"`
	// CreatedAt is the capture time.
	CreatedAt time.Time `json:"created_at"`
}

// Target describes the node a checkpoint would be restored onto.
type Target struct {
	KernelVersion string
	GPUArch       gpu.Architecture
}

// Checkpointer is a state capture/restore mechanism.
type Checkpointer interface {
	// Name identifies the mechanism ("alc", "criu").
	Name() string
	// Capture snapshots the source. incremental requests a delta
	// checkpoint relative to the previous capture; mechanisms that do
	// not support increments may return a full snapshot.
	Capture(src Source, seq int, incremental bool, now time.Time) (Checkpoint, error)
	// Restore validates that ck can be restored onto target and returns
	// the progress the workload resumes from.
	Restore(ck Checkpoint, target Target) (Progress, error)
}

// ALC is the application-level checkpointer. Full captures persist the
// application-defined state (the full memory image stands in for model +
// optimizer state); incremental captures persist only dirty pages and
// file deltas. ALC restores onto any kernel and GPU architecture.
type ALC struct{}

// Name implements Checkpointer.
func (ALC) Name() string { return "alc" }

// Capture implements Checkpointer. Capturing marks the image clean: the
// next incremental capture ships only subsequent modifications.
func (ALC) Capture(src Source, seq int, incremental bool, now time.Time) (Checkpoint, error) {
	if src.Image == nil {
		return Checkpoint{}, errors.New("checkpoint: nil memory image")
	}
	ck := Checkpoint{
		JobID:     src.JobID,
		Seq:       seq,
		Progress:  src.Progress,
		Env:       src.Env,
		Mechanism: "alc",
		CreatedAt: now,
	}
	if incremental && seq > 1 {
		ck.Incremental = true
		ck.BaseSeq = seq - 1
		ck.Bytes = src.Image.DirtyBytes()
	} else {
		ck.Bytes = src.Image.TotalBytes()
	}
	src.Image.markClean()
	return ck, nil
}

// Restore implements Checkpointer. ALC state is portable by
// construction: users write framework-level save/load code, so any
// compatible node can resume.
func (ALC) Restore(ck Checkpoint, _ Target) (Progress, error) {
	if ck.Mechanism != "alc" {
		return Progress{}, fmt.Errorf("checkpoint: alc cannot restore %q image", ck.Mechanism)
	}
	return ck.Progress, nil
}

// CRIU models system-level checkpoint/restore with the limitations the
// paper cites (§3.5): live CUDA contexts cannot be captured, restore
// requires the same kernel version, and images are not portable across
// GPU architectures. Captures are always full process images including
// GPU memory — there is no incremental mode.
type CRIU struct{}

// Name implements Checkpointer.
func (CRIU) Name() string { return "criu" }

// Capture implements Checkpointer.
func (CRIU) Capture(src Source, seq int, _ bool, now time.Time) (Checkpoint, error) {
	if src.Image == nil {
		return Checkpoint{}, errors.New("checkpoint: nil memory image")
	}
	if src.Env.HasCUDAContext {
		return Checkpoint{}, fmt.Errorf("%w (job %s)", ErrCUDAContext, src.JobID)
	}
	ck := Checkpoint{
		JobID:     src.JobID,
		Seq:       seq,
		Bytes:     src.Image.TotalBytes() + src.Env.GPUMemMiB*1024*1024,
		Progress:  src.Progress,
		Env:       src.Env,
		Mechanism: "criu",
		CreatedAt: now,
	}
	src.Image.markClean()
	return ck, nil
}

// Restore implements Checkpointer, enforcing kernel and architecture
// compatibility.
func (CRIU) Restore(ck Checkpoint, target Target) (Progress, error) {
	if ck.Mechanism != "criu" {
		return Progress{}, fmt.Errorf("checkpoint: criu cannot restore %q image", ck.Mechanism)
	}
	if ck.Env.KernelVersion != target.KernelVersion {
		return Progress{}, fmt.Errorf("%w: image %s, target %s",
			ErrKernelMismatch, ck.Env.KernelVersion, target.KernelVersion)
	}
	if ck.Env.GPUArch != target.GPUArch {
		return Progress{}, fmt.Errorf("%w: image %s, target %s",
			ErrArchMismatch, ck.Env.GPUArch, target.GPUArch)
	}
	return ck.Progress, nil
}
