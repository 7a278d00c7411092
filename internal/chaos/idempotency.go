package chaos

import (
	"fmt"
	"sync/atomic"

	"gpunion/internal/db"
	"gpunion/internal/invariant"
)

// VerifyIdempotent delivers a *duplicate* of an already-processed
// message and checks that it caused no state change: the store's
// mutation sequence must not advance and no mutation observer may be
// notified (monitoring samples are soft state and take no LSN, so only
// the observer sees a duplicated one). The caller delivers the original
// first, then hands the replay here.
//
// This is the detector behind the no-duplicate-side-effects invariant:
// during duplicate-delivery windows the harness replays every
// heartbeat, job update and launch through it, so any ingress that is
// not idempotent — a duplicated telemetry sample, a re-stamped
// completion time, a double-closed allocation — is caught at the exact
// message that slipped through.
//
// It must run at a quiescent point (between discrete-event callbacks):
// a concurrent legitimate mutation would be indistinguishable from a
// duplicate side effect.
func VerifyIdempotent(s db.Store, label string, deliver func()) []invariant.Violation {
	var notified atomic.Int64
	cancel := s.AddMutationObserver(func(db.Mutation) { notified.Add(1) })
	before := s.CurrentLSN()
	deliver()
	after := s.CurrentLSN()
	cancel()
	if after == before && notified.Load() == 0 {
		return nil
	}
	return []invariant.Violation{{
		Rule: "no-duplicate-side-effects",
		Detail: fmt.Sprintf("%s: duplicate delivery advanced the mutation sequence %d→%d and emitted %d mutations",
			label, before, after, notified.Load()),
	}}
}
