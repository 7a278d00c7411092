package gpu

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

func TestComputeCapabilityAtLeast(t *testing.T) {
	cases := []struct {
		have, min ComputeCapability
		want      bool
	}{
		{ComputeCapability{8, 6}, ComputeCapability{8, 0}, true},
		{ComputeCapability{8, 0}, ComputeCapability{8, 6}, false},
		{ComputeCapability{8, 6}, ComputeCapability{8, 6}, true},
		{ComputeCapability{9, 0}, ComputeCapability{8, 9}, true},
		{ComputeCapability{7, 5}, ComputeCapability{8, 0}, false},
		{ComputeCapability{8, 9}, ComputeCapability{0, 0}, true},
	}
	for _, c := range cases {
		if got := c.have.AtLeast(c.min); got != c.want {
			t.Errorf("%v.AtLeast(%v) = %v, want %v", c.have, c.min, got, c.want)
		}
	}
}

func TestComputeCapabilityString(t *testing.T) {
	if s := (ComputeCapability{8, 6}).String(); s != "8.6" {
		t.Fatalf("String() = %q", s)
	}
}

func TestSpecByModel(t *testing.T) {
	for _, m := range []string{"RTX 3090", "RTX 4090", "A100", "A6000"} {
		spec, ok := SpecByModel(m)
		if !ok || spec.Model != m {
			t.Errorf("SpecByModel(%q) = %+v, %v", m, spec, ok)
		}
	}
	if _, ok := SpecByModel("H100"); ok {
		t.Error("SpecByModel(H100) should be unknown")
	}
}

func TestCatalogSanity(t *testing.T) {
	for _, s := range []Spec{RTX3090, RTX4090, A100, A6000} {
		if s.MemoryMiB <= 0 || s.FP32TFLOPS <= 0 || s.PowerLimitW <= s.IdlePowerW {
			t.Errorf("catalog spec %q has nonsense values: %+v", s.Model, s)
		}
	}
	if RTX4090.Arch != Ada {
		t.Error("4090 should be Ada")
	}
	if A100.Arch != Ampere {
		t.Error("A100 should be Ampere")
	}
}

func TestAllocateRelease(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Allocate("c1", 8000); err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if d.AllocatedTo() != "c1" || d.Free() {
		t.Fatal("device should be held by c1")
	}
	if err := d.Release("c1"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if !d.Free() {
		t.Fatal("device should be free after release")
	}
}

func TestDoubleAllocateFails(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Allocate("c1", 1000); err != nil {
		t.Fatal(err)
	}
	err := d.Allocate("c2", 1000)
	if !errors.Is(err, ErrAlreadyAllocated) {
		t.Fatalf("second Allocate err = %v, want ErrAlreadyAllocated", err)
	}
}

func TestAllocateOverCapacityFails(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	err := d.Allocate("c1", RTX3090.MemoryMiB+1)
	if !errors.Is(err, ErrInsufficientMemory) {
		t.Fatalf("err = %v, want ErrInsufficientMemory", err)
	}
	if !d.Free() {
		t.Fatal("failed allocation must leave the device free")
	}
}

func TestReleaseWrongHolderFails(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Allocate("c1", 100); err != nil {
		t.Fatal(err)
	}
	if err := d.Release("c2"); !errors.Is(err, ErrAlreadyAllocated) {
		t.Fatalf("Release by wrong holder err = %v", err)
	}
	if d.AllocatedTo() != "c1" {
		t.Fatal("wrong-holder release must not free the device")
	}
}

func TestReleaseFreeDeviceFails(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Release("c1"); !errors.Is(err, ErrNotAllocated) {
		t.Fatalf("err = %v, want ErrNotAllocated", err)
	}
}

func TestTelemetryIdle(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	tel := d.Telemetry()
	if tel.Utilization != 0 || tel.Allocated {
		t.Fatalf("idle telemetry = %+v", tel)
	}
	if tel.PowerW != RTX3090.IdlePowerW {
		t.Fatalf("idle power = %v, want %v", tel.PowerW, RTX3090.IdlePowerW)
	}
	if tel.TemperatureC < 30 || tel.TemperatureC > 40 {
		t.Fatalf("idle temp = %v, want ~34", tel.TemperatureC)
	}
}

func TestTelemetryUnderLoad(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Allocate("c1", 20000); err != nil {
		t.Fatal(err)
	}
	d.SetUtilization(1.0)
	tel := d.Telemetry()
	if tel.PowerW != RTX3090.PowerLimitW {
		t.Fatalf("full-load power = %v, want %v", tel.PowerW, RTX3090.PowerLimitW)
	}
	if tel.TemperatureC < 80 {
		t.Fatalf("full-load temp = %v, want >=80", tel.TemperatureC)
	}
	if !tel.Allocated || tel.UsedMemMiB != 20000 {
		t.Fatalf("telemetry = %+v", tel)
	}
}

func TestSetUtilizationClamps(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	d.SetUtilization(2.5)
	if u := d.Telemetry().Utilization; u != 1 {
		t.Fatalf("util = %v, want clamp to 1", u)
	}
	d.SetUtilization(-1)
	if u := d.Telemetry().Utilization; u != 0 {
		t.Fatalf("util = %v, want clamp to 0", u)
	}
}

func TestSetUsedMemoryClamps(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	d.SetUsedMemory(RTX3090.MemoryMiB * 2)
	if m := d.Telemetry().UsedMemMiB; m != RTX3090.MemoryMiB {
		t.Fatalf("mem = %v, want clamp to capacity", m)
	}
	d.SetUsedMemory(-5)
	if m := d.Telemetry().UsedMemMiB; m != 0 {
		t.Fatalf("mem = %v, want clamp to 0", m)
	}
}

func TestReleaseResetsTelemetry(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	if err := d.Allocate("c1", 100); err != nil {
		t.Fatal(err)
	}
	d.SetUtilization(0.9)
	if err := d.Release("c1"); err != nil {
		t.Fatal(err)
	}
	tel := d.Telemetry()
	if tel.Utilization != 0 || tel.UsedMemMiB != 0 {
		t.Fatalf("post-release telemetry = %+v, want zeroed", tel)
	}
}

func TestInventoryLookup(t *testing.T) {
	inv := NewInventory(RTX4090, 8)
	if inv.Len() != 8 {
		t.Fatalf("Len = %d", inv.Len())
	}
	d, err := inv.Device("gpu7")
	if err != nil || d.Spec.Model != "RTX 4090" {
		t.Fatalf("Device(gpu7) = %v, %v", d, err)
	}
	if _, err := inv.Device("gpu8"); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("missing device err = %v", err)
	}
}

func TestMixedInventory(t *testing.T) {
	inv := NewMixedInventory(A100, A100, A6000)
	if inv.Len() != 3 {
		t.Fatalf("Len = %d", inv.Len())
	}
	d0, _ := inv.Device("gpu0")
	d2, _ := inv.Device("gpu2")
	if d0.Spec.Model != "A100" || d2.Spec.Model != "A6000" {
		t.Fatalf("mixed inventory wrong specs: %s, %s", d0.Spec.Model, d2.Spec.Model)
	}
}

func TestFindFreeRespectsConstraints(t *testing.T) {
	inv := NewMixedInventory(RTX3090, A100)
	// 40 GiB only fits the A100.
	d := inv.FindFree(40960, ComputeCapability{})
	if d == nil || d.Spec.Model != "A100" {
		t.Fatalf("FindFree(40GiB) = %v, want the A100", d)
	}
	// Capability 8.9 fits neither (3090/A100 are 8.6/8.0).
	if d := inv.FindFree(1024, ComputeCapability{8, 9}); d != nil {
		t.Fatalf("FindFree(cc>=8.9) = %v, want nil", d.Spec.Model)
	}
}

func TestFindFreeSkipsAllocated(t *testing.T) {
	inv := NewInventory(RTX3090, 2)
	d0, _ := inv.Device("gpu0")
	if err := d0.Allocate("c1", 100); err != nil {
		t.Fatal(err)
	}
	d := inv.FindFree(100, ComputeCapability{})
	if d == nil || d.ID != "gpu1" {
		t.Fatalf("FindFree = %v, want gpu1", d)
	}
	if d0.Free() || !d.Free() {
		t.Fatalf("gpu0 free = %v, gpu1 free = %v; want false, true", d0.Free(), d.Free())
	}
}

func TestSnapshotCoversAllDevices(t *testing.T) {
	inv := NewInventory(A6000, 4)
	snap := inv.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for _, tel := range snap {
		if tel.Model != "A6000" || tel.TotalMemMiB != A6000.MemoryMiB {
			t.Fatalf("telemetry = %+v", tel)
		}
	}
}

func TestConcurrentAllocationExclusive(t *testing.T) {
	d := NewDevice("gpu0", RTX3090)
	var wg sync.WaitGroup
	wins := make(chan string, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := string(rune('a' + i))
			if err := d.Allocate(id, 100); err == nil {
				wins <- id
			}
		}(i)
	}
	wg.Wait()
	close(wins)
	var holders []string
	for h := range wins {
		holders = append(holders, h)
	}
	if len(holders) != 1 {
		t.Fatalf("%d goroutines won exclusive allocation, want 1", len(holders))
	}
	if d.AllocatedTo() != holders[0] {
		t.Fatalf("AllocatedTo = %q, winner %q", d.AllocatedTo(), holders[0])
	}
}

// Property: telemetry power and temperature are monotone in utilization
// and always within [idle, limit].
func TestTelemetryMonotoneProperty(t *testing.T) {
	f := func(rawU1, rawU2 uint8) bool {
		u1 := float64(rawU1) / 255
		u2 := float64(rawU2) / 255
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		d := NewDevice("gpu0", RTX4090)
		d.SetUtilization(u1)
		t1 := d.Telemetry()
		d.SetUtilization(u2)
		t2 := d.Telemetry()
		if t1.PowerW > t2.PowerW || t1.TemperatureC > t2.TemperatureC {
			return false
		}
		for _, tel := range []Telemetry{t1, t2} {
			if tel.PowerW < RTX4090.IdlePowerW-1e-9 || tel.PowerW > RTX4090.PowerLimitW+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: FindFree never returns a device violating the constraints.
func TestFindFreeConstraintProperty(t *testing.T) {
	f := func(memRaw uint16, maj, min uint8) bool {
		mem := int64(memRaw) * 4 // 0..256 GiB in MiB steps
		cc := ComputeCapability{int(maj % 10), int(min % 10)}
		inv := NewMixedInventory(RTX3090, RTX4090, A100, A6000)
		d := inv.FindFree(mem, cc)
		if d == nil {
			return true
		}
		return d.Spec.MemoryMiB >= mem && d.Spec.Capability.AtLeast(cc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
