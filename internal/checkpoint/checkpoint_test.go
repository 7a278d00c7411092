package checkpoint

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"gpunion/internal/gpu"
)

var now = time.Date(2025, 9, 1, 0, 0, 0, 0, time.UTC)

func trainingSource(jobID string) Source {
	img := NewMemoryImage(1000, 4096) // ~4 MiB state
	return Source{
		JobID:    jobID,
		Image:    img,
		Progress: Progress{Step: 500},
		Env: Env{
			KernelVersion:  "5.15",
			GPUArch:        gpu.Ampere,
			HasCUDAContext: true,
			GPUMemMiB:      8192,
		},
	}
}

func TestMemoryImageSizes(t *testing.T) {
	img := NewMemoryImage(100, 4096)
	if img.TotalBytes() != 409600 {
		t.Fatalf("TotalBytes = %d", img.TotalBytes())
	}
}

func TestMemoryImageDefaults(t *testing.T) {
	if got := NewMemoryImage(-5, 0).TotalBytes(); got != 0 {
		t.Fatalf("negative page count: TotalBytes = %d, want 0", got)
	}
	if got := NewMemoryImage(1, 0).TotalBytes(); got != 4096 {
		t.Fatalf("default page size: TotalBytes = %d, want 4096", got)
	}
}

func TestTouchFraction(t *testing.T) {
	img := NewMemoryImage(100, 10)
	img.TouchFraction(0.25)
	if img.DirtyBytes() != 250 {
		t.Fatalf("DirtyBytes = %d, want 250 (25 pages)", img.DirtyBytes())
	}
	img.TouchFraction(2.0) // clamps to all pages
	if img.DirtyBytes() != 1000 {
		t.Fatalf("DirtyBytes = %d, want 1000 (100 pages)", img.DirtyBytes())
	}
}

func TestTouchFractionTinyNonZero(t *testing.T) {
	img := NewMemoryImage(100, 10)
	img.TouchFraction(0.0001) // rounds up to at least one page
	if img.DirtyBytes() != 10 {
		t.Fatalf("DirtyBytes = %d, want 10 (one page)", img.DirtyBytes())
	}
}

func TestFileDeltaAccumulates(t *testing.T) {
	img := NewMemoryImage(10, 100)
	img.AppendFileDelta(50)
	img.AppendFileDelta(25)
	img.AppendFileDelta(-10) // ignored
	if img.DirtyBytes() != 75 {
		t.Fatalf("DirtyBytes = %d, want 75", img.DirtyBytes())
	}
}

func TestALCFullCapture(t *testing.T) {
	src := trainingSource("j1")
	ck, err := ALC{}.Capture(src, 1, false, now)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Bytes != src.Image.TotalBytes() {
		t.Fatalf("full capture bytes = %d, want %d", ck.Bytes, src.Image.TotalBytes())
	}
	if ck.Incremental || ck.Seq != 1 || ck.Mechanism != "alc" {
		t.Fatalf("checkpoint = %+v", ck)
	}
	if ck.Progress.Step != 500 {
		t.Fatalf("progress = %+v", ck.Progress)
	}
}

func TestALCIncrementalCapturesOnlyDirty(t *testing.T) {
	src := trainingSource("j1")
	if _, err := (ALC{}).Capture(src, 1, false, now); err != nil {
		t.Fatal(err)
	}
	src.Image.TouchFraction(0.1) // 100 pages
	src.Image.AppendFileDelta(1000)
	ck, err := ALC{}.Capture(src, 2, true, now.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(100)*4096 + 1000
	if !ck.Incremental || ck.Bytes != want {
		t.Fatalf("incremental = %v bytes = %d, want %d", ck.Incremental, ck.Bytes, want)
	}
	if ck.BaseSeq != 1 {
		t.Fatalf("BaseSeq = %d, want 1", ck.BaseSeq)
	}
}

func TestALCFirstCaptureAlwaysFull(t *testing.T) {
	src := trainingSource("j1")
	ck, err := ALC{}.Capture(src, 1, true, now) // incremental requested, seq 1
	if err != nil {
		t.Fatal(err)
	}
	if ck.Incremental {
		t.Fatal("first capture must be full")
	}
	if ck.Bytes != src.Image.TotalBytes() {
		t.Fatalf("bytes = %d", ck.Bytes)
	}
}

func TestALCCaptureMarksClean(t *testing.T) {
	src := trainingSource("j1")
	src.Image.TouchFraction(0.5)
	if _, err := (ALC{}).Capture(src, 1, false, now); err != nil {
		t.Fatal(err)
	}
	if src.Image.DirtyBytes() != 0 {
		t.Fatal("capture did not reset dirty state")
	}
}

func TestALCNilImage(t *testing.T) {
	if _, err := (ALC{}).Capture(Source{JobID: "j"}, 1, false, now); err == nil {
		t.Fatal("nil image capture succeeded")
	}
}

func TestALCRestoreAnywhere(t *testing.T) {
	src := trainingSource("j1")
	ck, _ := ALC{}.Capture(src, 1, false, now)
	// Different kernel AND different GPU architecture: ALC doesn't care.
	prog, err := ALC{}.Restore(ck, Target{KernelVersion: "6.1", GPUArch: gpu.Ada})
	if err != nil {
		t.Fatalf("ALC restore failed: %v", err)
	}
	if prog.Step != 500 {
		t.Fatalf("restored progress = %+v", prog)
	}
}

func TestALCRejectsForeignImage(t *testing.T) {
	if _, err := (ALC{}).Restore(Checkpoint{Mechanism: "criu"}, Target{}); err == nil {
		t.Fatal("ALC restored a CRIU image")
	}
}

func TestCRIUFailsOnCUDAContext(t *testing.T) {
	src := trainingSource("j1") // HasCUDAContext: true
	_, err := CRIU{}.Capture(src, 1, false, now)
	if !errors.Is(err, ErrCUDAContext) {
		t.Fatalf("err = %v, want ErrCUDAContext", err)
	}
}

func TestCRIUCapturesCPUOnlyWorkload(t *testing.T) {
	src := trainingSource("j1")
	src.Env.HasCUDAContext = false
	ck, err := CRIU{}.Capture(src, 1, false, now)
	if err != nil {
		t.Fatal(err)
	}
	want := src.Image.TotalBytes() + src.Env.GPUMemMiB*1024*1024
	if ck.Bytes != want {
		t.Fatalf("CRIU bytes = %d, want %d (image + GPU memory)", ck.Bytes, want)
	}
}

func TestCRIUIgnoresIncrementalFlag(t *testing.T) {
	src := trainingSource("j1")
	src.Env.HasCUDAContext = false
	if _, err := (CRIU{}).Capture(src, 1, false, now); err != nil {
		t.Fatal(err)
	}
	src.Image.TouchFraction(0.01)
	ck, err := CRIU{}.Capture(src, 2, true, now)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Incremental {
		t.Fatal("CRIU produced an incremental checkpoint")
	}
	if ck.Bytes < src.Image.TotalBytes() {
		t.Fatalf("CRIU capture %d bytes < full image", ck.Bytes)
	}
}

func TestCRIURestoreKernelPinned(t *testing.T) {
	src := trainingSource("j1")
	src.Env.HasCUDAContext = false
	ck, _ := CRIU{}.Capture(src, 1, false, now)
	_, err := CRIU{}.Restore(ck, Target{KernelVersion: "6.1", GPUArch: gpu.Ampere})
	if !errors.Is(err, ErrKernelMismatch) {
		t.Fatalf("err = %v, want ErrKernelMismatch", err)
	}
}

func TestCRIURestoreArchPinned(t *testing.T) {
	src := trainingSource("j1")
	src.Env.HasCUDAContext = false
	ck, _ := CRIU{}.Capture(src, 1, false, now)
	_, err := CRIU{}.Restore(ck, Target{KernelVersion: "5.15", GPUArch: gpu.Ada})
	if !errors.Is(err, ErrArchMismatch) {
		t.Fatalf("err = %v, want ErrArchMismatch", err)
	}
}

func TestCRIURestoreMatchingTarget(t *testing.T) {
	src := trainingSource("j1")
	src.Env.HasCUDAContext = false
	ck, _ := CRIU{}.Capture(src, 1, false, now)
	prog, err := CRIU{}.Restore(ck, Target{KernelVersion: "5.15", GPUArch: gpu.Ampere})
	if err != nil || prog.Step != 500 {
		t.Fatalf("restore = %+v, %v", prog, err)
	}
}

func TestCRIURejectsForeignImage(t *testing.T) {
	if _, err := (CRIU{}).Restore(Checkpoint{Mechanism: "alc"}, Target{}); err == nil {
		t.Fatal("CRIU restored an ALC image")
	}
}

// Property: incremental ALC checkpoint bytes never exceed a full one for
// the same image, and both are non-negative.
func TestIncrementalNeverLargerProperty(t *testing.T) {
	f := func(fracRaw uint8, deltaKB uint8) bool {
		img := NewMemoryImage(256, 4096)
		src := Source{JobID: "p", Image: img, Env: Env{GPUArch: gpu.Ampere}}
		if _, err := (ALC{}).Capture(src, 1, false, now); err != nil {
			return false
		}
		img.TouchFraction(float64(fracRaw) / 255)
		full := img.TotalBytes()
		ck, err := ALC{}.Capture(src, 2, true, now)
		if err != nil {
			return false
		}
		// File deltas can exceed image size; exclude them here.
		return ck.Bytes >= 0 && ck.Bytes <= full && deltaKB >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
