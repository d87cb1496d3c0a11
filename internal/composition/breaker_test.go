package composition

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/supervise"
)

// TestBreakerGatesCandidatesAndHeals drives a service through the full
// circuit: a failing invocation opens its breaker, a re-advertised copy
// of the same service is then skipped without burning an attempt, and
// after the cool-down a half-open probe closes the circuit again.
func TestBreakerGatesCandidatesAndHeals(t *testing.T) {
	brokers, o := testWorld(t, 1, 1)
	fc := obs.NewFakeClock()
	bs := supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 1, OpenFor: time.Minute, HalfOpenSuccesses: 1, Clock: fc,
	})
	failing := true
	invoked := 0
	e := &Engine{
		Brokers: brokers, Onto: o, Breakers: bs,
		MaxAttempts: 3,
		Invoke: func(p *ontology.Profile, s Step) error {
			invoked++
			if failing {
				return errors.New("service down")
			}
			return nil
		},
	}
	plan := minePlan(t)

	// Act 1: the sole candidate for step 1 fails, opening its breaker
	// and aborting the composition.
	exec := e.Execute(plan)
	if exec.Succeeded {
		t.Fatal("all-failing world should not succeed")
	}
	// Step 1 burns its exact-match candidate plus any semantic
	// substitutes the rediscovery surfaced; each failed invocation opens
	// that service's breaker.
	var open []string
	for _, v := range bs.Snapshot() {
		if v.State == "open" {
			open = append(open, v.Target)
		}
	}
	if len(open) == 0 {
		t.Fatal("no breaker opened after failing invocations")
	}

	// Act 2: the dead service comes back (re-advertised), but its
	// breaker remembers — the engine skips it without invoking.
	reRegister(t, brokers, o)
	failing = false
	invoked = 0
	exec = e.Execute(plan)
	if exec.Succeeded {
		t.Fatal("open breaker should leave step 1 unbindable")
	}
	skips := 0
	for _, s := range exec.Steps {
		skips += s.BreakerSkips
	}
	if skips < 1 {
		t.Fatalf("BreakerSkips = %d, want >= 1", skips)
	}
	if invoked != 0 {
		t.Fatalf("open breaker still let %d invocations through", invoked)
	}
	if !errors.Is(exec.Err, ErrUnbound) {
		t.Fatalf("exec.Err = %v, want ErrUnbound", exec.Err)
	}

	// Act 3: the cool-down elapses; the half-open probe succeeds and the
	// composition completes, closing the circuit.
	fc.Advance(2 * time.Minute)
	exec = e.Execute(plan)
	if !exec.Succeeded {
		t.Fatalf("post-cool-down execution failed: %v", exec.Err)
	}
	for _, target := range open {
		if got := bs.State(target); got == supervise.BreakerOpen {
			t.Fatalf("breaker %s still open after cool-down and successful run", target)
		}
	}
}

// reRegister restores the single per-concept profiles testWorld created.
func reRegister(t *testing.T, brokers []*discovery.Broker, o *ontology.Ontology) {
	t.Helper()
	for _, c := range []string{"DecisionTreeService", "FourierSpectrumService", "DataMiningService"} {
		p := &ontology.Profile{Name: fmt.Sprintf("%s-0", c), Concept: c}
		if _, err := brokers[0].Reg.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
}
