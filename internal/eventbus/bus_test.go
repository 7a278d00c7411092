package eventbus

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func ev(t Type, job string) Event {
	return Event{Type: t, Time: time.Unix(0, 0), Job: job}
}

func TestPublishDeliversToSubscriber(t *testing.T) {
	b := New(0)
	var got []Event
	b.SubscribeFunc(func(e Event) { got = append(got, e) })
	b.Publish(ev(JobSubmitted, "j1"))
	if len(got) != 1 || got[0].Type != JobSubmitted || got[0].Job != "j1" {
		t.Fatalf("got %+v", got)
	}
}

func TestTypeFilteredSubscription(t *testing.T) {
	b := New(0)
	var got []Type
	b.SubscribeFunc(func(e Event) { got = append(got, e.Type) }, JobCompleted, JobFailed)
	b.Publish(ev(JobSubmitted, "j1"))
	b.Publish(ev(JobCompleted, "j2"))
	b.Publish(ev(JobFailed, "j3"))
	if len(got) != 2 || got[0] != JobCompleted || got[1] != JobFailed {
		t.Fatalf("filtered handler got %v", got)
	}
}

func TestSubscribeFuncSynchronous(t *testing.T) {
	b := New(0)
	var calls []string
	b.SubscribeFunc(func(e Event) { calls = append(calls, e.Job) }, JobStarted)
	b.Publish(ev(JobStarted, "a"))
	b.Publish(ev(JobFailed, "b")) // filtered out
	b.Publish(ev(JobStarted, "c"))
	if len(calls) != 2 || calls[0] != "a" || calls[1] != "c" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestSubscribeFuncAllTypes(t *testing.T) {
	b := New(0)
	n := 0
	b.SubscribeFunc(func(Event) { n++ })
	b.Publish(ev(JobStarted, "a"))
	b.Publish(ev(NodeDeparted, ""))
	if n != 2 {
		t.Fatalf("n = %d, want 2", n)
	}
}

func TestHistoryRetention(t *testing.T) {
	b := New(3)
	for i := 0; i < 5; i++ {
		b.Publish(ev(JobStarted, string(rune('a'+i))))
	}
	h := b.History()
	if len(h) != 3 {
		t.Fatalf("history len = %d, want 3", len(h))
	}
	if h[0].Job != "c" || h[2].Job != "e" {
		t.Fatalf("history = %v", h)
	}
}

// TestConcurrentPublishSubscribe: publishers, late handler
// registrations and history readers may all race (run under -race).
// Every handler sees each event published after it registered exactly
// once, so the first one — registered before any publisher starts —
// sees them all.
func TestConcurrentPublishSubscribe(t *testing.T) {
	const publishers, each = 8, 100
	b := New(100)
	var first atomic.Int64
	b.SubscribeFunc(func(Event) { first.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				b.Publish(ev(JobStarted, "x"))
			}
		}()
	}
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var late atomic.Int64
			b.SubscribeFunc(func(Event) { late.Add(1) }, JobStarted)
			_ = b.History()
		}()
	}
	wg.Wait()
	if got := first.Load(); got != publishers*each {
		t.Fatalf("first handler saw %d events, want %d", got, publishers*each)
	}
	if h := b.History(); len(h) != 100 {
		t.Fatalf("history holds %d events, want the 100 it retains", len(h))
	}
}
