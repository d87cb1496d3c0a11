package composition

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/supervise"
)

// referenceRunStep is runStep as it stood when every lookup fetched the
// whole ranking: the oracle for the bounded window. Only the discover call
// differs, asking for everything (max 0).
func referenceRunStep(e *Engine, step Step, avoid map[string]bool) (StepReport, error) {
	report := StepReport{Task: step.Task.Name, Optional: step.Task.Optional, Group: step.Group}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}

	// Build the candidate list.
	var candidates []*ontology.Profile
	if e.Strategy == Proactive {
		if p, ok := e.cache[step.Task.Concept]; ok && e.stillAdvertised(p) {
			candidates = append(candidates, p)
			report.CacheHit = true
		}
	}
	if len(candidates) == 0 {
		ms, err := e.discover(step, 0, &report.Latency)
		if err != nil {
			return report, err
		}
		for _, m := range ms {
			candidates = append(candidates, m.Profile)
		}
	}

	// Try candidates in rank order, popping each; when the list runs
	// dry, re-discover once more in case new services have appeared
	// since the previous lookup.
	rediscovered := false
	for report.Attempts < maxAttempts {
		if len(candidates) == 0 {
			if rediscovered {
				break
			}
			rediscovered = true
			ms, err := e.discover(step, 0, &report.Latency)
			if err != nil {
				return report, err
			}
			for _, m := range ms {
				candidates = append(candidates, m.Profile)
			}
			continue
		}
		p := candidates[0]
		candidates = candidates[1:]
		if avoid[p.Name] {
			report.Avoided++
			continue
		}
		if e.Breakers != nil && !e.Breakers.Allow(p.Name) {
			report.BreakerSkips++
			continue
		}
		report.Attempts++
		report.Latency += e.InvokeCost
		if err := e.Invoke(p, step); err == nil {
			if e.Breakers != nil {
				e.Breakers.Success(p.Name)
			}
			delete(e.failStreak, p.Name)
			report.OK = true
			report.Service = p.Name
			if e.Strategy == Proactive {
				if e.cache == nil {
					e.cache = map[string]*ontology.Profile{}
				}
				e.cache[step.Task.Concept] = p
			}
			break
		}
		if e.Breakers != nil {
			e.Breakers.Failure(p.Name)
		}
		report.Rebinds++
		delete(e.cache, step.Task.Concept)
		e.noteFailure(p.Name)
	}
	return report, nil
}

// windowWorld is one side of the twin experiment: its own brokers,
// breakers and engine, built from the same draw as the other side.
type windowWorld struct {
	engine  *Engine
	invoked []string
	// unbounded counts the lookups that asked for the whole ranking.
	unbounded int
}

// countingMatcher wraps the matcher every broker of a world shares and
// counts the world's unbounded lookups.
type countingMatcher struct {
	discovery.Matcher
	world *windowWorld
}

func (m countingMatcher) Match(req ontology.Request, candidates []*ontology.Profile) []discovery.Match {
	if req.Max == 0 {
		m.world.unbounded++
	}
	return m.Matcher.Match(req, candidates)
}

// newWindowWorld registers exact matches and weaker generic substitutes for
// one step, so the ranking has two score tiers with name-ordered ties, and
// opens the breakers of the named services.
func newWindowWorld(t *testing.T, nBrokers, exact, generic, maxAttempts int,
	strategy BindStrategy, open []string, failing map[string]bool) *windowWorld {
	t.Helper()
	o := ontology.Pervasive()
	w := &windowWorld{}
	m := countingMatcher{discovery.NewSemanticMatcher(o), w}
	brokers := make([]*discovery.Broker, nBrokers)
	for i := range brokers {
		brokers[i] = discovery.NewBroker(fmt.Sprintf("broker-%d", i), m)
		if i > 0 {
			brokers[0].Peer(brokers[i], true)
		}
	}
	for i := 0; i < exact+generic; i++ {
		p := &ontology.Profile{Name: fmt.Sprintf("svc-%02d", i), Concept: "DecisionTreeService"}
		if i >= exact {
			p.Concept = "DataMiningService"
		}
		if _, err := brokers[i%nBrokers].Reg.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	bs := supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 2, OpenFor: time.Hour, Clock: obs.NewFakeClock(),
	})
	for _, name := range open {
		bs.ForceOpen(name)
	}
	w.engine = &Engine{
		Brokers: brokers, Onto: o, Breakers: bs, Mode: Distributed, Strategy: strategy,
		MaxAttempts:   maxAttempts,
		DiscoveryCost: 0.005, InvokeCost: 0.02,
		Invoke: func(p *ontology.Profile, _ Step) error {
			w.invoked = append(w.invoked, p.Name)
			if failing[p.Name] {
				return errors.New("service down")
			}
			return nil
		},
	}
	return w
}

// TestRunStepWindowEqualsFullRanking runs the same step in twin worlds —
// one binding from the bounded window, one from the whole ranking — under
// random avoid sets, open breakers and failing services, and expects the
// same report, the same invocations in the same order, and the same
// registry afterwards. Steps run back to back on each side, so failure
// streaks, deregistrations and proactive bindings carry over too.
func TestRunStepWindowEqualsFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	step := Step{Task: &Task{Name: "classify", Concept: "DecisionTreeService"}}
	steps, extended := 0, 0
	for trial := 0; trial < 300; trial++ {
		exact, generic := rng.Intn(12), rng.Intn(6)
		// Skips cluster at the top of the ranking, where they matter.
		draw := func(share float64) []string {
			var names []string
			for i := 0; i < exact+generic; i++ {
				if rng.Float64() < share {
					names = append(names, fmt.Sprintf("svc-%02d", i))
				}
			}
			return names
		}
		open := draw([]float64{0, 0.3, 0.8}[rng.Intn(3)])
		failing := map[string]bool{}
		for _, name := range draw([]float64{0, 0.4, 1}[rng.Intn(3)]) {
			failing[name] = true
		}
		nBrokers, maxAttempts := 1+rng.Intn(2), rng.Intn(5) // 0 is the default of 3
		strategy := BindStrategy(rng.Intn(2))
		got := newWindowWorld(t, nBrokers, exact, generic, maxAttempts, strategy, open, failing)
		want := newWindowWorld(t, nBrokers, exact, generic, maxAttempts, strategy, open, failing)

		for round := 0; round < 3; round++ {
			avoid := map[string]bool{}
			for _, name := range draw([]float64{0, 0.2, 0.6}[rng.Intn(3)]) {
				avoid[name] = true
			}
			if rng.Intn(4) == 0 {
				avoid["not-advertised"] = true
			}
			steps++
			before := got.unbounded
			gotReport, gotErr := got.engine.runStep(step, avoid)
			wantReport, wantErr := referenceRunStep(want.engine, step, avoid)
			if !reflect.DeepEqual(gotReport, wantReport) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("trial %d round %d (avoid %v, open %v, failing %v):\n window: %+v %v\n   full: %+v %v",
					trial, round, avoid, open, failing, gotReport, gotErr, wantReport, wantErr)
			}
			if got.unbounded > before {
				extended++
			}
			if !reflect.DeepEqual(got.invoked, want.invoked) {
				t.Fatalf("trial %d round %d: invoked %v, full ranking invoked %v", trial, round, got.invoked, want.invoked)
			}
			for i, b := range got.engine.Brokers {
				if g, w := b.Reg.Len(), want.engine.Brokers[i].Reg.Len(); g != w {
					t.Fatalf("trial %d round %d: broker %d holds %d advertisements, full ranking leaves %d", trial, round, i, g, w)
				}
			}
		}
	}
	// Both regimes must be in the draw: steps whose skips used up a full
	// window and had to go on down the ranking, and steps that never did.
	if extended < steps/10 || extended > steps/2 {
		t.Fatalf("%d of %d steps went beyond their window", extended, steps)
	}
}
