// Package eventbus holds one constructor, New, kept for the end-to-end
// benchmark's hand-assembled coordinator (bench/trace.go, a module of
// its own). Lifecycle events have one sink, the flight recorder
// (internal/obs); ROADMAP item 6(a) deletes this package with that
// file.
package eventbus

import (
	"gpunion/internal/obs"
	"gpunion/internal/simclock"
)

// New returns a flight recorder on the wall clock retaining the most
// recent capacity events (non-positive: obs.DefaultCapacity).
func New(capacity int) *obs.Recorder {
	return obs.NewRecorder(simclock.Real(), capacity)
}
