// Package workload models the jobs that run on GPUnion: deep-learning
// training (the PyTorch CNN and transformer models of the paper's §4
// experiments) and interactive research sessions.
//
// The evaluation's quantities — time lost to an interruption, checkpoint
// creation time, incremental checkpoint size, total training time
// inflation — are all functions of a job's step time, state size and
// state-mutation rate. This package captures those functions; it does not
// execute any numerical computation.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/gpu"
)

// Class is the model family of a training job.
type Class string

// Model families used in the paper's migration experiments (§4: "20 deep
// learning training jobs (PyTorch CNN and transformer models)").
const (
	CNN         Class = "cnn"
	Transformer Class = "transformer"
)

// gpuEfficiency is the fraction of peak FP32 throughput a real training
// loop sustains (kernel launch overhead, memory stalls, input pipeline).
const gpuEfficiency = 0.35

// diskWriteBytesPerSec is the provider-local disk bandwidth available for
// writing checkpoint files. Memory-intensive models take proportionally
// longer to checkpoint — the effect behind the paper's observation that
// they are more sensitive to interruptions.
const diskWriteBytesPerSec = 1.2e9

// TrainingSpec is the static description of a training job.
type TrainingSpec struct {
	// Class is the model family.
	Class Class `json:"class"`
	// TotalSteps is the number of optimizer steps to completion.
	TotalSteps int64 `json:"total_steps"`
	// StepFLOPs is the FP32 work per step.
	StepFLOPs float64 `json:"step_flops"`
	// StateBytes is the recoverable application state (model weights +
	// optimizer moments) — the size of a full ALC checkpoint.
	StateBytes int64 `json:"state_bytes"`
	// GPUMemMiB is the device memory footprint while training.
	GPUMemMiB int64 `json:"gpu_mem_mib"`
	// MinCapability is the lowest CUDA compute capability that can run
	// this job.
	MinCapability gpu.ComputeCapability `json:"min_capability"`
	// DirtyFracPerStep is the fraction of checkpointable state whose
	// pages differ per training step at page granularity. Weights drift
	// slowly, so successive periodic checkpoints share most of their
	// pages — the property the paper's incremental backup exploits
	// ("only modified memory pages and file system deltas are
	// transmitted", §4).
	DirtyFracPerStep float64 `json:"dirty_frac_per_step"`
	// LogBytesPerStep is file-system output per step (metrics, samples).
	LogBytesPerStep int64 `json:"log_bytes_per_step"`
}

// StepTime returns the wall time of one training step on the given GPU.
func (s TrainingSpec) StepTime(dev gpu.Spec) time.Duration {
	if dev.FP32TFLOPS <= 0 {
		return 0
	}
	secs := s.StepFLOPs / (dev.FP32TFLOPS * 1e12 * gpuEfficiency)
	return time.Duration(secs * float64(time.Second))
}

// StepsIn returns how many steps complete in d on the given GPU.
func (s TrainingSpec) StepsIn(d time.Duration, dev gpu.Spec) int64 {
	st := s.StepTime(dev)
	if st <= 0 {
		return 0
	}
	return int64(d / st)
}

// RunTime returns the uninterrupted wall time of the whole job on dev.
func (s TrainingSpec) RunTime(dev gpu.Spec) time.Duration {
	return time.Duration(s.TotalSteps) * s.StepTime(dev)
}

// CheckpointCreationTime is the pause needed to write a full ALC
// checkpoint to provider-local disk.
func (s TrainingSpec) CheckpointCreationTime() time.Duration {
	secs := float64(s.StateBytes) / diskWriteBytesPerSec
	return time.Duration(secs * float64(time.Second))
}

// MemoryIntensive reports whether the job is in the paper's
// "memory-intensive" class (large state, long checkpoint creation).
func (s TrainingSpec) MemoryIntensive() bool {
	return s.StateBytes >= 2_000_000_000
}

// pageSize is the MemoryImage page granularity for training state.
const pageSize = 1 << 20 // 1 MiB pages

// Job is a live training job: spec plus mutable progress and the memory
// image that incremental checkpoints diff against.
type Job struct {
	// ID is the platform-wide job identifier.
	ID string
	// Spec is the static job description.
	Spec TrainingSpec

	mu    sync.Mutex
	image *checkpoint.MemoryImage
	step  int64
}

// NewJob creates a job at step 0.
func NewJob(id string, spec TrainingSpec) *Job {
	pages := int(spec.StateBytes / pageSize)
	if pages == 0 && spec.StateBytes > 0 {
		pages = 1
	}
	return &Job{
		ID:    id,
		Spec:  spec,
		image: checkpoint.NewMemoryImage(pages, pageSize),
	}
}

// Image exposes the job's memory image for checkpoint capture.
func (j *Job) Image() *checkpoint.MemoryImage { return j.image }

// Step returns the completed step count.
func (j *Job) Step() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.step
}

// Done reports whether the job has reached its total steps.
func (j *Job) Done() bool {
	return j.Step() >= j.Spec.TotalSteps
}

// Advance runs n steps (clamped to the remaining work): progress moves
// forward and the memory image accumulates dirty state for the next
// incremental checkpoint. It returns the steps actually run.
func (j *Job) Advance(n int64) int64 {
	if n <= 0 {
		return 0
	}
	j.mu.Lock()
	remaining := j.Spec.TotalSteps - j.step
	if n > remaining {
		n = remaining
	}
	j.step += n
	j.mu.Unlock()
	if n > 0 {
		frac := j.Spec.DirtyFracPerStep * float64(n)
		j.image.TouchFraction(frac)
		j.image.AppendFileDelta(j.Spec.LogBytesPerStep * n)
	}
	return n
}

// Progress returns the application-level state marker for checkpointing.
func (j *Job) Progress() checkpoint.Progress {
	return checkpoint.Progress{Step: j.Step()}
}

// RestoreTo rewinds (or fast-forwards) the job to a checkpointed
// progress marker, recording the interruption.
func (j *Job) RestoreTo(p checkpoint.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.step = p.Step
}

// Session is an interactive research session (Jupyter-style): it holds a
// GPU for a bounded wall-clock duration at a characteristic utilization.
type Session struct {
	// Duration is the session length.
	Duration time.Duration
	// GPUMemMiB is the memory footprint of the session.
	GPUMemMiB int64
	// AvgUtilization is the mean GPU utilization while active
	// (interactive work is bursty: typically 0.15–0.4).
	AvgUtilization float64
}

// Catalog of representative training jobs. FLOP counts and state sizes
// are sized so step times and checkpoint sizes land in realistic ranges
// for the named model families on the paper's hardware.
var (
	// SmallCNN: ResNet-50-class vision model.
	SmallCNN = TrainingSpec{
		Class: CNN, TotalSteps: 20000, StepFLOPs: 2.5e12,
		StateBytes: 400_000_000, GPUMemMiB: 8192,
		MinCapability:    gpu.ComputeCapability{Major: 7, Minor: 0},
		DirtyFracPerStep: 3e-5, LogBytesPerStep: 2048,
	}
	// LargeCNN: wide vision backbone with heavy augmentation.
	LargeCNN = TrainingSpec{
		Class: CNN, TotalSteps: 40000, StepFLOPs: 8e12,
		StateBytes: 1_500_000_000, GPUMemMiB: 16384,
		MinCapability:    gpu.ComputeCapability{Major: 7, Minor: 0},
		DirtyFracPerStep: 1.2e-5, LogBytesPerStep: 4096,
	}
	// SmallTransformer: BERT-base-class fine-tune.
	SmallTransformer = TrainingSpec{
		Class: Transformer, TotalSteps: 30000, StepFLOPs: 5e12,
		StateBytes: 1_300_000_000, GPUMemMiB: 12288,
		MinCapability:    gpu.ComputeCapability{Major: 7, Minor: 5},
		DirtyFracPerStep: 2e-5, LogBytesPerStep: 2048,
	}
	// LargeTransformer: 1.3B-parameter language model — the paper's
	// memory-intensive case.
	LargeTransformer = TrainingSpec{
		Class: Transformer, TotalSteps: 60000, StepFLOPs: 2e13,
		StateBytes: 15_600_000_000, GPUMemMiB: 40960,
		MinCapability:    gpu.ComputeCapability{Major: 8, Minor: 0},
		DirtyFracPerStep: 8e-6, LogBytesPerStep: 8192,
	}
)

// Generator produces randomized but reproducible workload corpora.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator creates a generator with the given seed.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// TrainingCorpus generates n training jobs mixing CNN and transformer
// families, scaled by a size jitter so no two jobs are identical. IDs
// are "job-1".."job-n".
func (g *Generator) TrainingCorpus(n int) []*Job {
	bases := []TrainingSpec{SmallCNN, LargeCNN, SmallTransformer, LargeTransformer}
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		base := bases[g.rng.Intn(len(bases))]
		jitter := 0.75 + g.rng.Float64()*0.5 // ×[0.75, 1.25)
		spec := base
		spec.TotalSteps = int64(float64(base.TotalSteps) * jitter)
		spec.StepFLOPs = base.StepFLOPs * jitter
		spec.StateBytes = int64(float64(base.StateBytes) * jitter)
		jobs = append(jobs, NewJob(fmt.Sprintf("job-%d", i+1), spec))
	}
	return jobs
}
