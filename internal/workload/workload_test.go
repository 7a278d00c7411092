package workload

import (
	"testing"
	"testing/quick"
	"time"

	"gpunion/internal/checkpoint"
	"gpunion/internal/gpu"
)

func TestStepTimeScalesWithGPU(t *testing.T) {
	st3090 := SmallCNN.StepTime(gpu.RTX3090)
	st4090 := SmallCNN.StepTime(gpu.RTX4090)
	if st3090 <= 0 || st4090 <= 0 {
		t.Fatalf("step times: %v, %v", st3090, st4090)
	}
	if st4090 >= st3090 {
		t.Fatalf("4090 step (%v) should beat 3090 (%v)", st4090, st3090)
	}
}

func TestStepTimeRealisticRange(t *testing.T) {
	// A ResNet-50-class step on a 3090 should land between 50 ms and 1 s.
	st := SmallCNN.StepTime(gpu.RTX3090)
	if st < 50*time.Millisecond || st > time.Second {
		t.Fatalf("SmallCNN step on 3090 = %v, outside plausible range", st)
	}
}

func TestStepTimeZeroTFLOPS(t *testing.T) {
	if st := SmallCNN.StepTime(gpu.Spec{}); st != 0 {
		t.Fatalf("StepTime on zero spec = %v", st)
	}
}

func TestStepsIn(t *testing.T) {
	st := SmallCNN.StepTime(gpu.RTX3090)
	n := SmallCNN.StepsIn(10*st, gpu.RTX3090)
	if n != 10 {
		t.Fatalf("StepsIn(10 steps worth) = %d", n)
	}
	if SmallCNN.StepsIn(time.Hour, gpu.Spec{}) != 0 {
		t.Fatal("StepsIn on zero spec should be 0")
	}
}

func TestRunTime(t *testing.T) {
	want := time.Duration(SmallCNN.TotalSteps) * SmallCNN.StepTime(gpu.RTX3090)
	if got := SmallCNN.RunTime(gpu.RTX3090); got != want {
		t.Fatalf("RunTime = %v, want %v", got, want)
	}
}

func TestCheckpointCreationTimeScalesWithState(t *testing.T) {
	small := SmallCNN.CheckpointCreationTime()
	large := LargeTransformer.CheckpointCreationTime()
	if large <= small {
		t.Fatalf("memory-intensive checkpoint (%v) should exceed small (%v)", large, small)
	}
	// 15.6 GB at 1.2 GB/s ≈ 13 s.
	if large < 10*time.Second || large > 20*time.Second {
		t.Fatalf("LargeTransformer checkpoint time = %v, want ≈13 s", large)
	}
}

func TestMemoryIntensiveClassification(t *testing.T) {
	if SmallCNN.MemoryIntensive() {
		t.Fatal("SmallCNN classified memory-intensive")
	}
	if !LargeTransformer.MemoryIntensive() {
		t.Fatal("LargeTransformer not classified memory-intensive")
	}
}

func TestJobAdvance(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	ran := j.Advance(100)
	if ran != 100 || j.Step() != 100 {
		t.Fatalf("Advance = %d, Step = %d", ran, j.Step())
	}
	if j.Done() {
		t.Fatal("job done after 100/20000 steps")
	}
}

func TestJobAdvanceClampsAtCompletion(t *testing.T) {
	spec := SmallCNN
	spec.TotalSteps = 50
	j := NewJob("j1", spec)
	ran := j.Advance(100)
	if ran != 50 || !j.Done() {
		t.Fatalf("Advance = %d, Done = %v", ran, j.Done())
	}
	if j.Advance(10) != 0 {
		t.Fatal("advancing a done job ran steps")
	}
}

func TestJobAdvanceNonPositive(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	if j.Advance(0) != 0 || j.Advance(-5) != 0 {
		t.Fatal("non-positive Advance ran steps")
	}
}

func TestJobAdvanceDirtiesImage(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	if j.Image().DirtyBytes() != 0 {
		t.Fatal("fresh job has dirty state")
	}
	j.Advance(10)
	if j.Image().DirtyBytes() == 0 {
		t.Fatal("Advance left image clean")
	}
}

func TestJobRestoreAccounting(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	j.Advance(1000)
	// Checkpoint at step 600, then the provider departs.
	j.RestoreTo(checkpoint.Progress{Step: 600})
	if j.Step() != 600 {
		t.Fatalf("Step after restore = %d", j.Step())
	}
	j.Advance(400)
	if j.Step() != 1000 {
		t.Fatalf("Step after redoing the lost work = %d, want 1000", j.Step())
	}
}

func TestJobCheckpointRoundTrip(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	j.Advance(500)
	src := checkpoint.Source{JobID: j.ID, Image: j.Image(), Progress: j.Progress()}
	ck, err := checkpoint.ALC{}.Capture(src, 1, false, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Progress.Step != 500 {
		t.Fatalf("checkpoint progress = %+v", ck.Progress)
	}
	if ck.Bytes != j.Image().TotalBytes() {
		t.Fatalf("checkpoint bytes = %d", ck.Bytes)
	}
	j.Advance(300)
	j.RestoreTo(ck.Progress)
	if j.Step() != 500 {
		t.Fatalf("after restore: step=%d, want 500", j.Step())
	}
}

func TestJobImageSizedFromState(t *testing.T) {
	j := NewJob("j1", SmallCNN)
	got := j.Image().TotalBytes()
	// Pages are 1 MiB; total should be within one page of StateBytes.
	if got > SmallCNN.StateBytes || got < SmallCNN.StateBytes-(1<<20) {
		t.Fatalf("image bytes = %d, state = %d", got, SmallCNN.StateBytes)
	}
}

func TestJobTinyStateStillHasAPage(t *testing.T) {
	spec := SmallCNN
	spec.StateBytes = 100
	j := NewJob("j1", spec)
	if got := j.Image().TotalBytes(); got != 1<<20 {
		t.Fatalf("image bytes = %d, want one 1 MiB page", got)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(42).TrainingCorpus(20)
	b := NewGenerator(42).TrainingCorpus(20)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("corpus sizes %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Spec != b[i].Spec || a[i].ID != b[i].ID {
			t.Fatalf("corpus diverges at %d: %+v vs %+v", i, a[i].Spec, b[i].Spec)
		}
	}
}

func TestGeneratorMixesClasses(t *testing.T) {
	jobs := NewGenerator(7).TrainingCorpus(40)
	classes := make(map[Class]int)
	for _, j := range jobs {
		classes[j.Spec.Class]++
	}
	if classes[CNN] == 0 || classes[Transformer] == 0 {
		t.Fatalf("class mix = %v, want both families", classes)
	}
}

func TestGeneratorJitterWithinBounds(t *testing.T) {
	jobs := NewGenerator(9).TrainingCorpus(50)
	for _, j := range jobs {
		if j.Spec.StateBytes <= 0 || j.Spec.TotalSteps <= 0 {
			t.Fatalf("degenerate spec %+v", j.Spec)
		}
		// Jitter is bounded by ×1.25 of the largest base spec.
		if j.Spec.StateBytes > int64(float64(LargeTransformer.StateBytes)*1.25)+1 {
			t.Fatalf("state bytes %d exceeds jitter bound", j.Spec.StateBytes)
		}
	}
}

// Property: advancing in chunks reaches the same step count as one big
// advance, and never exceeds TotalSteps.
func TestAdvanceChunkingProperty(t *testing.T) {
	f := func(chunks []uint16) bool {
		spec := SmallCNN
		spec.TotalSteps = 5000
		j1 := NewJob("a", spec)
		j2 := NewJob("b", spec)
		var total int64
		for _, c := range chunks {
			j1.Advance(int64(c))
			total += int64(c)
		}
		j2.Advance(total)
		if j1.Step() != j2.Step() {
			return false
		}
		return j1.Step() <= spec.TotalSteps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a restore resumes exactly at the checkpoint, and the steps
// run after it count from there.
func TestRestoreAccountingProperty(t *testing.T) {
	f := func(advance1, ckpt, advance2 uint16) bool {
		spec := SmallCNN
		spec.TotalSteps = 1 << 20
		j := NewJob("p", spec)
		j.Advance(int64(advance1))
		at := int64(ckpt) % (j.Step() + 1) // checkpoint at or before current step
		j.RestoreTo(checkpoint.Progress{Step: at})
		if j.Step() != at {
			return false
		}
		j.Advance(int64(advance2))
		return j.Step() == at+int64(advance2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
