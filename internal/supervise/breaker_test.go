package supervise

import (
	"fmt"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	fc := obs.NewFakeClock()
	b := NewBreaker("svc", BreakerPolicy{FailureThreshold: 3, OpenFor: time.Second, Clock: fc})
	for i := 0; i < 2; i++ {
		b.Failure()
		if !b.Allow() {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after threshold, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a send inside the cool-down")
	}
	if c := countsOf(b); c.Opened != 1 || c.Failures != 3 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestBreakerHalfOpenProbeAndClose(t *testing.T) {
	fc := obs.NewFakeClock()
	b := NewBreaker("svc", BreakerPolicy{FailureThreshold: 1, OpenFor: time.Second, HalfOpenSuccesses: 2, Clock: fc})
	b.Failure()
	if b.Allow() {
		t.Fatal("breaker should be open")
	}
	fc.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cool-down elapsed: probe should be allowed")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.Success()
	if b.State() != BreakerHalfOpen {
		t.Fatal("one success closed a breaker that needs two")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after enough probe successes, want closed", b.State())
	}
	c := countsOf(b)
	if c.Opened != 1 || c.HalfOpened != 1 || c.Closed != 1 {
		t.Fatalf("transition counts = %+v", c)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	fc := obs.NewFakeClock()
	b := NewBreaker("svc", BreakerPolicy{FailureThreshold: 1, OpenFor: time.Second, Clock: fc})
	b.Failure()
	fc.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not allowed")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	// The cool-down restarts from the re-open.
	fc.Advance(500 * time.Millisecond)
	if b.Allow() {
		t.Fatal("re-opened breaker allowed a send before a fresh cool-down")
	}
}

func TestBreakerForceOpenAndHeal(t *testing.T) {
	fc := obs.NewFakeClock()
	b := NewBreaker("node-2", BreakerPolicy{OpenFor: time.Second, HalfOpenSuccesses: 1, Clock: fc})
	b.ForceOpen()
	if b.State() != BreakerOpen {
		t.Fatal("ForceOpen did not open")
	}
	openedAt := countsOf(b).Opened
	// Repeated health syncs must not reset the cool-down.
	fc.Advance(900 * time.Millisecond)
	b.ForceOpen()
	fc.Advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("repeated ForceOpen reset the cool-down")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed after heal", b.State())
	}
	if got := countsOf(b).Opened; got != openedAt {
		t.Fatalf("ForceOpen while open counted a transition: %d -> %d", openedAt, got)
	}
}

func TestBreakerSetLazyCreation(t *testing.T) {
	s := NewBreakerSet(BreakerPolicy{FailureThreshold: 2})
	if !s.Allow("never-seen") {
		t.Fatal("untracked target not allowed")
	}
	s.Success("never-seen")
	if s.get("never-seen", false) != nil {
		t.Fatal("Success created a breaker")
	}
	s.Failure("svc")
	if s.get("svc", false) == nil {
		t.Fatal("Failure did not create a breaker")
	}
	if s.State("svc") != BreakerClosed {
		t.Fatal("one failure below threshold opened the breaker")
	}
	s.Failure("svc")
	if s.State("svc") != BreakerOpen || s.Allow("svc") {
		t.Fatal("threshold failures did not open the set's breaker")
	}
}

func TestBreakerSetBoundsTargets(t *testing.T) {
	s := NewBreakerSet(BreakerPolicy{})
	for i := 0; i < DefaultBreakerTargets; i++ {
		s.Failure(fmt.Sprintf("svc-%d", i))
	}
	s.Failure("c") // over the cap: not tracked
	if s.get("c", false) != nil {
		t.Fatal("set grew past DefaultBreakerTargets")
	}
	if !s.Allow("c") {
		t.Fatal("untracked over-cap target must stay allowed")
	}
	if got := len(s.Snapshot()); got != DefaultBreakerTargets {
		t.Fatalf("snapshot has %d entries, want %d", got, DefaultBreakerTargets)
	}
}

func TestBreakerSetSnapshotAndMetrics(t *testing.T) {
	fc := obs.NewFakeClock()
	reg := obs.NewRegistry()
	s := NewBreakerSet(BreakerPolicy{FailureThreshold: 1, OpenFor: time.Second, HalfOpenSuccesses: 1, Clock: fc})
	s.AttachMetrics(reg)
	s.Failure("beta")
	s.Failure("alpha")
	views := s.Snapshot()
	if len(views) != 2 || views[0].Target != "alpha" || views[1].Target != "beta" {
		t.Fatalf("snapshot not sorted: %+v", views)
	}
	if views[0].State != "open" {
		t.Fatalf("alpha state = %s, want open", views[0].State)
	}
	if got := reg.Gauge("breaker_state", "target", "alpha").Value(); got != float64(BreakerOpen) {
		t.Fatalf("breaker_state gauge = %v, want %v", got, float64(BreakerOpen))
	}
	if got := reg.Counter("breaker_transitions_total", "target", "alpha", "to", "open").Value(); got != 1 {
		t.Fatalf("transition counter = %v, want 1", got)
	}
	// alpha: open -> half-open -> closed = 3 transitions; beta: 1.
	fc.Advance(time.Second)
	s.Allow("alpha")
	s.Success("alpha")
	if got := s.Transitions(); got != 4 {
		t.Fatalf("Transitions() = %d, want 4", got)
	}
	if got := reg.Gauge("breaker_state", "target", "alpha").Value(); got != float64(BreakerClosed) {
		t.Fatalf("healed gauge = %v, want closed", got)
	}
}

func TestBreakerSetOnTransition(t *testing.T) {
	fc := obs.NewFakeClock()
	s := NewBreakerSet(BreakerPolicy{FailureThreshold: 2, OpenFor: time.Second, HalfOpenSuccesses: 1, Clock: fc})

	type hop struct {
		target   string
		from, to BreakerState
	}
	var got []hop
	cancel := s.OnTransition(func(target string, from, to BreakerState) {
		got = append(got, hop{target, from, to})
	})

	s.Failure("svc-a")
	s.Failure("svc-a") // closed -> open
	fc.Advance(time.Second)
	s.Allow("svc-a")   // open -> half-open
	s.Success("svc-a") // half-open -> closed
	s.ForceOpen("svc-b")

	want := []hop{
		{"svc-a", BreakerClosed, BreakerOpen},
		{"svc-a", BreakerOpen, BreakerHalfOpen},
		{"svc-a", BreakerHalfOpen, BreakerClosed},
		{"svc-b", BreakerClosed, BreakerOpen},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d transitions %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	cancel()
	s.Failure("svc-b") // already open: no transition either way
	s.Failure("svc-c")
	s.Failure("svc-c") // closed -> open, but unsubscribed
	if len(got) != len(want) {
		t.Fatalf("cancelled subscriber still notified: %v", got[len(want):])
	}
}

func TestBreakerSetOnTransitionWithMetrics(t *testing.T) {
	fc := obs.NewFakeClock()
	s := NewBreakerSet(BreakerPolicy{FailureThreshold: 1, OpenFor: time.Second, Clock: fc})
	reg := obs.NewRegistry()
	s.AttachMetrics(reg)

	fired := 0
	s.OnTransition(func(string, BreakerState, BreakerState) { fired++ })
	s.Failure("svc")
	if fired != 1 {
		t.Fatalf("subscriber fired %d times, want 1", fired)
	}
	if got := reg.Gauge("breaker_state", "target", "svc").Value(); got != float64(BreakerOpen) {
		t.Fatalf("breaker_state gauge = %v, want %v (metrics must keep working alongside subscribers)", got, float64(BreakerOpen))
	}
}

// countsOf snapshots a breaker's cumulative activity.
func countsOf(b *Breaker) BreakerCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.counts
}
