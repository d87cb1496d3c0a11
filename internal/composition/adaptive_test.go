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

// adaptiveWorld builds a broker with per-concept services plus a library
// whose goal has a primary decomposition over "primary-svc" concepts and
// an alternative over "fallback-svc" concepts.
func adaptiveWorld(t *testing.T, perConcept int) (*discovery.Broker, *ontology.Ontology, *Library) {
	t.Helper()
	o := ontology.Pervasive()
	b := discovery.NewBroker("b0", discovery.NewSemanticMatcher(o))
	for _, c := range []string{"IngestService", "MineService", "ApproxService"} {
		for j := 0; j < perConcept; j++ {
			p := &ontology.Profile{Name: fmt.Sprintf("%s-%d", c, j), Concept: c}
			if _, err := b.Reg.Register(p, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	l := NewLibrary()
	def := func(task *Task) {
		if err := l.Define(task); err != nil {
			t.Fatal(err)
		}
	}
	def(&Task{Name: "analyse", Subtasks: []string{"ingest", "mine"},
		Alternatives: [][]string{{"ingest", "approx"}}})
	def(&Task{Name: "ingest", Concept: "IngestService",
		Inputs: []string{"Raw"}, Outputs: []string{"IngestedData"}})
	def(&Task{Name: "mine", Concept: "MineService",
		Inputs: []string{"IngestedData"}, Outputs: []string{"Result"}})
	def(&Task{Name: "approx", Concept: "ApproxService",
		Inputs: []string{"IngestedData"}, Outputs: []string{"Result"}})
	return b, o, l
}

func stopAdaptive(t *testing.T, a *Adaptive) {
	t.Helper()
	done := make(chan struct{})
	go func() { a.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("adaptive Stop hung")
	}
}

// TestAdaptiveMigratesWithinPlan pins intra-plan migration: a breaker
// signal against the service bound to a remaining step steers that step
// to a substitute (no re-plan needed when the same concept has spares).
func TestAdaptiveMigratesWithinPlan(t *testing.T) {
	b, o, _ := adaptiveWorld(t, 2)
	// No alternatives: with a single plan the executor cannot re-plan,
	// so the signal must be answered by steering within the plan.
	l := NewLibrary()
	for _, task := range []*Task{
		{Name: "analyse", Subtasks: []string{"ingest", "mine"}},
		{Name: "ingest", Concept: "IngestService",
			Inputs: []string{"Raw"}, Outputs: []string{"IngestedData"}},
		{Name: "mine", Concept: "MineService",
			Inputs: []string{"IngestedData"}, Outputs: []string{"Result"}},
	} {
		if err := l.Define(task); err != nil {
			t.Fatal(err)
		}
	}
	invoked := map[string]int{}
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Metrics: obs.NewRegistry(),
		Invoke: func(p *ontology.Profile, s Step) error {
			invoked[p.Name]++
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse", Initial: []string{"Raw"}}
	a.Start()
	defer stopAdaptive(t, a)

	// Find the top-ranked candidate for the second step and degrade it
	// before the conversation starts.
	plan, err := l.Plan("analyse")
	if err != nil {
		t.Fatal(err)
	}
	var scratch float64
	ms, err := e.discover(plan[1], 1, &scratch)
	if err != nil || len(ms) == 0 {
		t.Fatalf("no candidates for %s: %v", plan[1].Task.Name, err)
	}
	victim := ms[0].Profile.Name
	a.absorb(Signal{Kind: SignalBreakerOpen, Service: victim, At: time.Unix(0, 0)})

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	if invoked[victim] != 0 {
		t.Fatalf("degraded service %s was invoked %d times", victim, invoked[victim])
	}
	if exec.Migrations == 0 {
		t.Fatal("expected a migration to the substitute service")
	}
	for svc, n := range invoked {
		if n > 1 {
			t.Fatalf("service %s invoked %d times (completed work redone)", svc, n)
		}
	}
}

// TestAdaptiveReplansWhereStaticAbandons is the tentpole contract: every
// service of a mid-plan concept dies; the static engine abandons the
// conversation, the adaptive executor re-plans onto the alternative
// decomposition, keeps the completed first step, and finishes.
func TestAdaptiveReplansWhereStaticAbandons(t *testing.T) {
	deadConcept := "MineService"
	invoke := func(p *ontology.Profile, s Step) error {
		if p.Concept == deadConcept {
			return errors.New("provider crashed")
		}
		return nil
	}

	// Static: abandons once the concept's candidates are exhausted.
	bs, os, ls := adaptiveWorld(t, 1)
	static := &Engine{Brokers: []*discovery.Broker{bs}, Onto: os, Invoke: invoke}
	plan, err := ls.Plan("analyse")
	if err != nil {
		t.Fatal(err)
	}
	if sexec := static.Execute(plan); sexec.Succeeded || !sexec.Abandoned {
		t.Fatalf("static execution should abandon: %+v", sexec)
	}

	// Adaptive: same world, same invoker, re-plans and completes.
	b, o, l := adaptiveWorld(t, 1)
	invoked := map[string]int{}
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Metrics: obs.NewRegistry(),
		Invoke: func(p *ontology.Profile, s Step) error {
			if err := invoke(p, s); err != nil {
				return err
			}
			invoked[s.Task.Name]++
			return nil
		},
	}
	events := obs.NewEventLog(16)
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse",
		Initial: []string{"Raw"}, Events: events}
	a.Start()
	defer stopAdaptive(t, a)

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	if exec.Replans == 0 {
		t.Fatal("expected at least one re-plan")
	}
	if exec.Abandoned {
		t.Fatal("completed conversation marked abandoned")
	}
	for task, n := range invoked {
		if n > 1 {
			t.Fatalf("step %s executed %d times (completed work redone)", task, n)
		}
	}
	if invoked["ingest"] != 1 || invoked["approx"] != 1 {
		t.Fatalf("invocations = %v, want ingest and approx exactly once", invoked)
	}
	// Metrics and wide events recorded the adaptation.
	if got := e.Metrics.Counter("composition_replans_total").Value(); got == 0 {
		t.Fatal("composition_replans_total not incremented")
	}
	evs := events.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d wide events, want 1", len(evs))
	}
	var sawReplan, sawStep bool
	for _, ph := range evs[0].Phases {
		switch {
		case ph.Name == "replan":
			sawReplan = true
		case ph.Name == "step:ingest":
			sawStep = true
		}
	}
	if !sawReplan || !sawStep {
		t.Fatalf("wide event phases missing replan/step marks: %+v", evs[0].Phases)
	}
}

// TestAdaptiveProactiveReplanOnSignal covers the watch-loop path: a
// breaker-open signal delivered through Degrade (absorbed by the
// supervised watch goroutine) against the only provider of a remaining
// step's concept re-plans before that step ever fails.
func TestAdaptiveProactiveReplanOnSignal(t *testing.T) {
	b, o, l := adaptiveWorld(t, 1)
	invoked := map[string]int{}
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Metrics: obs.NewRegistry(),
		Invoke: func(p *ontology.Profile, s Step) error {
			invoked[p.Name]++
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse", Initial: []string{"Raw"}}
	a.Start()
	defer stopAdaptive(t, a)

	a.Degrade(Signal{Kind: SignalHealth, Service: "MineService-0",
		Detail: "monitor verdict suspect"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.mu.Lock()
		n := len(a.degraded)
		a.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watch loop never absorbed the signal")
		}
		time.Sleep(time.Millisecond)
	}

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	if exec.Replans == 0 {
		t.Fatal("expected a proactive re-plan from the health signal")
	}
	if invoked["MineService-0"] != 0 {
		t.Fatal("degraded provider was still invoked")
	}
	if got := e.Metrics.Counter("composition_signals_total", "kind", string(SignalHealth)).Value(); got != 1 {
		t.Fatalf("composition_signals_total{health} = %v, want 1", got)
	}
}

// TestAdaptiveWatchBreakers wires a real BreakerSet: failures opening a
// circuit mid-run produce the signal without any manual Degrade call.
func TestAdaptiveWatchBreakers(t *testing.T) {
	b, o, l := adaptiveWorld(t, 2)
	clk := obs.NewFakeClock()
	bset := supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 1, OpenFor: time.Hour, Clock: clk,
	})
	failing := map[string]bool{"MineService-0": true, "MineService-1": false}
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o, Breakers: bset,
		Metrics: obs.NewRegistry(),
		Invoke: func(p *ontology.Profile, s Step) error {
			if failing[p.Name] {
				return errors.New("crashed")
			}
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse", Initial: []string{"Raw"}}
	a.Start()
	defer stopAdaptive(t, a)
	a.WatchBreakers(bset)

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	// The failing provider opened its breaker (threshold 1); the signal
	// flowed through OnTransition -> Degrade. It may land after the
	// rebind already saved the step, but it must be counted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.Metrics.Counter("composition_signals_total", "kind", string(SignalBreakerOpen)).Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker transition never surfaced as a signal")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdaptiveConfirmsDeadOnDownSignal: a Dead signal (Down verdict)
// withdraws the service's advertisement via Engine.ConfirmDead.
func TestAdaptiveConfirmsDeadOnDownSignal(t *testing.T) {
	b, o, l := adaptiveWorld(t, 2)
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Invoke: func(p *ontology.Profile, s Step) error { return nil },
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse", Initial: []string{"Raw"}}
	a.Start()
	defer stopAdaptive(t, a)
	a.absorb(Signal{Kind: SignalHealth, Service: "IngestService-0", Dead: true})

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	for _, p := range b.Reg.Profiles() {
		if p.Name == "IngestService-0" {
			t.Fatal("Down-signalled service still advertised after run")
		}
	}
}

// TestAdaptiveHonorsMaxReplans: with re-planning disabled the adaptive
// executor degenerates to static behaviour and abandons.
func TestAdaptiveHonorsMaxReplans(t *testing.T) {
	b, o, l := adaptiveWorld(t, 1)
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Invoke: func(p *ontology.Profile, s Step) error {
			if p.Concept == "MineService" {
				return errors.New("crashed")
			}
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse",
		Initial: []string{"Raw"}, MaxReplans: -1}
	a.Start()
	defer stopAdaptive(t, a)
	exec := a.Run()
	if exec.Succeeded || !exec.Abandoned {
		t.Fatalf("MaxReplans<0 should abandon like static: %+v", exec)
	}
	if exec.Replans != 0 {
		t.Fatalf("replans = %d with re-planning disabled", exec.Replans)
	}
}

// TestAdaptiveCostSignal: an invoker slower than CostThreshold (measured
// on the executor's clock) raises a cost signal against the service.
func TestAdaptiveCostSignal(t *testing.T) {
	b, o, l := adaptiveWorld(t, 2)
	clk := obs.NewFakeClock()
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Metrics: obs.NewRegistry(),
		Invoke: func(p *ontology.Profile, s Step) error {
			if p.Name == "IngestService-0" {
				clk.Advance(300 * time.Millisecond) // slow provider
			}
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse",
		Initial: []string{"Raw"}, Clock: clk, CostThreshold: 100 * time.Millisecond}
	a.Start()
	defer stopAdaptive(t, a)

	exec := a.Run()
	if !exec.Succeeded {
		t.Fatalf("adaptive run failed: %+v", exec.Err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.Metrics.Counter("composition_signals_total", "kind", string(SignalCost)).Value() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow invocation never raised a cost signal")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandoffCarriesCompleted pins what a migration carries forward: the
// initial data, each completed step's record, and their union.
func TestHandoffCarriesCompleted(t *testing.T) {
	h := NewHandoff([]string{"Raw"})
	h.Complete(Step{Task: &Task{Name: "ingest", Outputs: []string{"Cooked"}}, Group: 2},
		StepReport{Service: "svc-1", Latency: 0.5})
	if len(h.Initial) != 1 || h.Initial[0] != "Raw" {
		t.Fatalf("initial = %v", h.Initial)
	}
	c, ok := h.Completed["ingest"]
	if !ok || c.Service != "svc-1" || c.Group != 2 || len(c.Outputs) != 1 {
		t.Fatalf("completed = %+v", h.Completed)
	}
	avail := h.Available()
	if len(avail) != 2 {
		t.Fatalf("available = %v", avail)
	}
}

// TestAdaptiveResumeSkipsCompleted: a conversation continued from a
// handoff never re-executes the carried-forward steps.
func TestAdaptiveResumeSkipsCompleted(t *testing.T) {
	b, o, l := adaptiveWorld(t, 1)
	resumed := NewHandoff([]string{"Raw"})
	plan, err := l.Plan("analyse")
	if err != nil {
		t.Fatal(err)
	}
	resumed.Complete(plan[0], StepReport{Service: "IngestService-0", OK: true})

	invoked := map[string]int{}
	e := &Engine{
		Brokers: []*discovery.Broker{b}, Onto: o,
		Invoke: func(p *ontology.Profile, s Step) error {
			invoked[s.Task.Name]++
			return nil
		},
	}
	a := &Adaptive{Engine: e, Library: l, Goal: "analyse"}
	a.Start()
	defer stopAdaptive(t, a)
	plans, err := l.PlanRanked("analyse", DefaultMaxPlans)
	if err != nil {
		t.Fatal(err)
	}
	exec := a.execute(plans, resumed, 3)
	if !exec.Succeeded {
		t.Fatalf("resumed run failed: %+v", exec.Err)
	}
	if invoked["ingest"] != 0 {
		t.Fatal("resumed conversation redid the completed ingest step")
	}
	if invoked["mine"] != 1 {
		t.Fatalf("invocations = %v, want just mine", invoked)
	}
}
