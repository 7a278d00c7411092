package container

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestComputeDigestDeterministic(t *testing.T) {
	d1 := ComputeDigest("manifest-a")
	d2 := ComputeDigest("manifest-a")
	d3 := ComputeDigest("manifest-b")
	if d1 != d2 {
		t.Fatal("same manifest produced different digests")
	}
	if d1 == d3 {
		t.Fatal("different manifests produced the same digest")
	}
	if !strings.HasPrefix(d1, "sha256:") || len(d1) != len("sha256:")+64 {
		t.Fatalf("digest shape %q", d1)
	}
}

func TestImageVerify(t *testing.T) {
	im := NewImage("a:1", "content", 100)
	if err := im.Verify(); err != nil {
		t.Fatalf("fresh image failed verification: %v", err)
	}
	im.Manifest = "tampered"
	if err := im.Verify(); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered image err = %v, want ErrDigestMismatch", err)
	}
}

func TestImageStoreAddRejectsBadDigest(t *testing.T) {
	s := NewImageStore()
	im := NewImage("a:1", "content", 100)
	im.Digest = "sha256:deadbeef"
	if err := s.Add(im); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("Add err = %v, want ErrDigestMismatch", err)
	}
}

func TestImageStoreGet(t *testing.T) {
	s := NewImageStore()
	im := NewImage("a:1", "content", 100)
	if err := s.Add(im); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a:1")
	if err != nil || got.Digest != im.Digest {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("missing err = %v", err)
	}
}

func TestAdmitRequiresAllowList(t *testing.T) {
	s := NewImageStore()
	im := NewImage("a:1", "content", 100)
	if err := s.Add(im); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit("a:1"); !errors.Is(err, ErrImageNotAllowed) {
		t.Fatalf("unallowed Admit err = %v, want ErrImageNotAllowed", err)
	}
	s.Allow(im.Digest)
	if _, err := s.Admit("a:1"); err != nil {
		t.Fatalf("allowed Admit: %v", err)
	}
}

func TestAdmitMissingImage(t *testing.T) {
	s := NewImageStore()
	if _, err := s.Admit("ghost:1"); !errors.Is(err, ErrImageNotFound) {
		t.Fatalf("err = %v, want ErrImageNotFound", err)
	}
}

func TestImageStoreListSorted(t *testing.T) {
	s := NewImageStore()
	_ = s.Add(NewImage("z:1", "z", 1))
	_ = s.Add(NewImage("a:1", "a", 1))
	names := s.List()
	if len(names) != 2 || names[0] != "a:1" || names[1] != "z:1" {
		t.Fatalf("List = %v", names)
	}
}

func TestDefaultImagesAllAdmittable(t *testing.T) {
	s := DefaultImages()
	names := s.List()
	if len(names) < 4 {
		t.Fatalf("stock images = %v", names)
	}
	for _, n := range names {
		if _, err := s.Admit(n); err != nil {
			t.Errorf("stock image %s not admittable: %v", n, err)
		}
	}
}

func TestDefaultImagesIncludeJupyter(t *testing.T) {
	s := DefaultImages()
	if _, err := s.Get("gpunion/jupyter-dl:latest"); err != nil {
		t.Fatalf("jupyter image missing: %v", err)
	}
}

// Property: digest verification accepts exactly the original manifest.
func TestDigestDetectsAnyMutationProperty(t *testing.T) {
	f := func(manifest string, flip uint8) bool {
		im := NewImage("p:1", manifest, 1)
		if im.Verify() != nil {
			return false
		}
		if len(manifest) == 0 {
			return true
		}
		// Mutate one byte.
		b := []byte(manifest)
		idx := int(flip) % len(b)
		b[idx] ^= 0xFF
		im.Manifest = string(b)
		return im.Verify() != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
