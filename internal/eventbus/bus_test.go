package eventbus

import (
	"testing"

	"gpunion/internal/obs"
)

// The recorder New returns is the one a hand-assembled coordinator
// records into, so its hooks must see what the bus's subscribers saw:
// every event, on the recording goroutine, before the call returns.

func TestPublishDeliversToSubscriber(t *testing.T) {
	r := New(0)
	var got []obs.Event
	r.Observe(func(e obs.Event) { got = append(got, e) })
	r.Record(obs.KindJobSubmitted, "j1", "", nil)
	if len(got) != 1 || got[0].Kind != obs.KindJobSubmitted || got[0].Job != "j1" {
		t.Fatalf("got %+v", got)
	}
}

func TestSubscribeFuncSynchronous(t *testing.T) {
	r := New(0)
	var calls []string
	r.Observe(func(e obs.Event) {
		if e.Kind == obs.KindJobStarted {
			calls = append(calls, e.Job)
		}
	})
	r.Record(obs.KindJobStarted, "a", "", nil)
	if len(calls) != 1 {
		t.Fatalf("hook not run before Record returned: %v", calls)
	}
	r.Record(obs.KindJobFailed, "b", "", nil) // skipped by the hook
	r.Record(obs.KindJobStarted, "c", "", nil)
	if len(calls) != 2 || calls[0] != "a" || calls[1] != "c" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestSubscribeFuncAllTypes(t *testing.T) {
	r := New(0)
	n := 0
	r.Observe(func(obs.Event) { n++ })
	r.Record(obs.KindJobStarted, "a", "", nil)
	r.Record(obs.KindNodeDeparted, "", "", nil)
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}
