// Package container implements GPUnion's containerized execution
// environment (§3.3) as far as the platform depends on it: image
// admission (SHA-256 digest verification against a trusted-image
// allow-list) and GPU passthrough binding, the
// NVIDIA_VISIBLE_DEVICES-equivalent that gives one container one whole
// GPU. What runs on a node, and how it ends, is the agent's record.
package container

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the image store.
var (
	ErrImageNotFound   = errors.New("container: image not found")
	ErrDigestMismatch  = errors.New("container: image digest verification failed")
	ErrImageNotAllowed = errors.New("container: image not on the trusted allow-list")
)

// Image is a container image descriptor. Content is modelled by a
// manifest string whose SHA-256 digest stands in for the layer digest
// chain of a real OCI image.
type Image struct {
	// Name is the reference, e.g. "pytorch/pytorch:2.3-cuda12".
	Name string `json:"name"`
	// Digest is "sha256:<hex>" over the manifest.
	Digest string `json:"digest"`
	// SizeBytes is the compressed image size (drives image-pull traffic).
	SizeBytes int64 `json:"size_bytes"`
	// Manifest is the content the digest covers.
	Manifest string `json:"manifest"`
}

// ComputeDigest returns the canonical "sha256:<hex>" digest of manifest.
func ComputeDigest(manifest string) string {
	sum := sha256.Sum256([]byte(manifest))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// NewImage builds an image with its digest computed from the manifest.
func NewImage(name, manifest string, sizeBytes int64) Image {
	return Image{
		Name:      name,
		Digest:    ComputeDigest(manifest),
		SizeBytes: sizeBytes,
		Manifest:  manifest,
	}
}

// Verify recomputes the manifest digest and checks it against the
// recorded one. Images must pass verification before deployment (§3.3).
func (im Image) Verify() error {
	if got := ComputeDigest(im.Manifest); got != im.Digest {
		return fmt.Errorf("%w: recorded %s, computed %s", ErrDigestMismatch, im.Digest, got)
	}
	return nil
}

// ImageStore holds pullable images and the allow-list of trusted base
// images. It is safe for concurrent use.
type ImageStore struct {
	mu      sync.RWMutex
	images  map[string]Image // by name
	allowed map[string]bool  // digest → trusted
}

// NewImageStore returns an empty store.
func NewImageStore() *ImageStore {
	return &ImageStore{
		images:  make(map[string]Image),
		allowed: make(map[string]bool),
	}
}

// Add registers an image (it is not trusted until Allow is called).
func (s *ImageStore) Add(im Image) error {
	if err := im.Verify(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.images[im.Name] = im
	return nil
}

// Allow marks the image's digest as trusted.
func (s *ImageStore) Allow(digest string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allowed[digest] = true
}

// Get returns the image by name.
func (s *ImageStore) Get(name string) (Image, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	im, ok := s.images[name]
	if !ok {
		return Image{}, fmt.Errorf("%w: %s", ErrImageNotFound, name)
	}
	return im, nil
}

// Admit performs the full §3.3 admission check for a deployment: the
// image must exist, pass SHA-256 verification, and be on the allow-list.
func (s *ImageStore) Admit(name string) (Image, error) {
	im, err := s.Get(name)
	if err != nil {
		return Image{}, err
	}
	if err := im.Verify(); err != nil {
		return Image{}, err
	}
	s.mu.RLock()
	trusted := s.allowed[im.Digest]
	s.mu.RUnlock()
	if !trusted {
		return Image{}, fmt.Errorf("%w: %s (%s)", ErrImageNotAllowed, im.Name, shortDigest(im.Digest))
	}
	return im, nil
}

// List returns all registered image names, sorted.
func (s *ImageStore) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.images))
	for n := range s.images {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func shortDigest(d string) string {
	if i := strings.Index(d, ":"); i >= 0 && len(d) > i+13 {
		return d[:i+13]
	}
	return d
}

// DefaultImages returns the stock images GPUnion ships for campus use:
// the interactive Jupyter research environment and common training
// bases, all pre-allowed.
func DefaultImages() *ImageStore {
	s := NewImageStore()
	stock := []Image{
		NewImage("gpunion/jupyter-dl:latest",
			"jupyter notebook + pytorch 2.3 + cuda 12.1", 6_800_000_000),
		NewImage("pytorch/pytorch:2.3-cuda12",
			"pytorch 2.3 runtime, cuda 12.1, cudnn 8", 5_200_000_000),
		NewImage("tensorflow/tensorflow:2.16-gpu",
			"tensorflow 2.16 gpu runtime", 5_900_000_000),
		NewImage("gpunion/base-cuda:12.1",
			"minimal cuda 12.1 runtime base", 2_100_000_000),
	}
	for _, im := range stock {
		if err := s.Add(im); err != nil {
			// Stock manifests are constants; failure is programmer error.
			panic(err)
		}
		s.Allow(im.Digest)
	}
	return s
}
