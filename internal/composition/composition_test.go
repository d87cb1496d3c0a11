package composition

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

func TestLibraryDefineValidation(t *testing.T) {
	l := NewLibrary()
	if err := l.Define(nil); err == nil {
		t.Fatal("nil task should fail")
	}
	if err := l.Define(&Task{}); err == nil {
		t.Fatal("unnamed task should fail")
	}
	if err := l.Define(&Task{Name: "p"}); err == nil {
		t.Fatal("primitive without concept should fail")
	}
	if err := l.Define(&Task{Name: "c", Concept: "X", Subtasks: []string{"p"}}); err == nil {
		t.Fatal("compound with concept should fail")
	}
	if err := l.Define(&Task{Name: "p", Concept: "X"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(&Task{Name: "p", Concept: "Y"}); err == nil {
		t.Fatal("redefinition should fail")
	}
}

func TestPlanExpansion(t *testing.T) {
	l := StreamMiningLibrary()
	plan, err := l.Plan("mine-stream")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"generate-trees", "compute-spectra", "choose-dominant", "combine-tree"}
	if len(plan) != len(want) {
		t.Fatalf("plan length = %d, want %d", len(plan), len(want))
	}
	for i, s := range plan {
		if s.Task.Name != want[i] {
			t.Fatalf("step %d = %s, want %s", i, s.Task.Name, want[i])
		}
		if len(s.Path) == 0 || s.Path[0] != "mine-stream" {
			t.Fatalf("step %d path = %v", i, s.Path)
		}
	}
}

func TestPlanNestedCompound(t *testing.T) {
	l := NewLibrary()
	for _, task := range []*Task{
		{Name: "top", Subtasks: []string{"mid", "leafC"}},
		{Name: "mid", Subtasks: []string{"leafA", "leafB"}},
		{Name: "leafA", Concept: "A"},
		{Name: "leafB", Concept: "B"},
		{Name: "leafC", Concept: "C"},
	} {
		if err := l.Define(task); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := l.Plan("top")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, s := range plan {
		got = append(got, s.Task.Name)
	}
	want := []string{"leafA", "leafB", "leafC"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan = %v, want %v", got, want)
		}
	}
}

func TestPlanCycleDetected(t *testing.T) {
	l := NewLibrary()
	if err := l.Define(&Task{Name: "a", Subtasks: []string{"b"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Define(&Task{Name: "b", Subtasks: []string{"a"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Plan("a"); err == nil {
		t.Fatal("cycle should be detected")
	}
}

func TestPlanUndefinedTask(t *testing.T) {
	l := NewLibrary()
	if err := l.Define(&Task{Name: "a", Subtasks: []string{"ghost"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Plan("a"); err == nil {
		t.Fatal("undefined subtask should fail")
	}
	if _, err := l.Plan("missing"); err == nil {
		t.Fatal("undefined goal should fail")
	}
}

func TestValidateDataflow(t *testing.T) {
	o := ontology.Pervasive()
	l := StreamMiningLibrary()
	plan, err := l.Plan("mine-stream")
	if err != nil {
		t.Fatal(err)
	}
	// TemperatureSensor subsumes into the wanted SensorService input.
	if err := ValidateDataflow(plan, []string{"TemperatureSensor"}, o); err != nil {
		t.Fatal(err)
	}
	// Without any sensor data the first step is starved.
	if err := ValidateDataflow(plan, nil, o); err == nil {
		t.Fatal("missing initial input should fail dataflow validation")
	}
}

// testWorld builds brokers populated with services for the mining plan.
func testWorld(t *testing.T, nBrokers int, perConcept int) ([]*discovery.Broker, *ontology.Ontology) {
	t.Helper()
	o := ontology.Pervasive()
	m := discovery.NewSemanticMatcher(o)
	brokers := make([]*discovery.Broker, nBrokers)
	for i := range brokers {
		brokers[i] = discovery.NewBroker(fmt.Sprintf("broker-%d", i), m)
	}
	concepts := []string{"DecisionTreeService", "FourierSpectrumService", "DataMiningService"}
	for ci, c := range concepts {
		for j := 0; j < perConcept; j++ {
			p := &ontology.Profile{Name: fmt.Sprintf("%s-%d", c, j), Concept: c}
			b := brokers[(ci+j)%nBrokers]
			if _, err := b.Reg.Register(p, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Full mesh peering so lookups can fan out.
	for i := range brokers {
		for j := range brokers {
			if i < j {
				brokers[i].Peer(brokers[j], true)
			}
		}
	}
	return brokers, o
}

func minePlan(t *testing.T) []Step {
	t.Helper()
	plan, err := StreamMiningLibrary().Plan("mine-stream")
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestExecuteHappyPath(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	e := &Engine{
		Brokers: brokers, Onto: o,
		Invoke:        func(*ontology.Profile, Step) error { return nil },
		DiscoveryCost: 0.01, InvokeCost: 0.05,
	}
	exec := e.Execute(minePlan(t))
	if !exec.Succeeded || exec.Err != nil {
		t.Fatalf("execution failed: %+v", exec)
	}
	if len(exec.Steps) != 4 {
		t.Fatalf("steps = %d", len(exec.Steps))
	}
	if exec.Latency <= 0 {
		t.Fatal("latency should accumulate")
	}
	for _, s := range exec.Steps {
		if !s.OK || s.Service == "" || s.Attempts != 1 {
			t.Fatalf("step report %+v", s)
		}
	}
}

func TestExecuteRebindsOnFailure(t *testing.T) {
	brokers, o := testWorld(t, 1, 3)
	deadOnce := map[string]bool{}
	e := &Engine{
		Brokers: brokers, Onto: o,
		MaxAttempts: 3,
		Invoke: func(p *ontology.Profile, s Step) error {
			// First candidate for each concept dies once.
			if !deadOnce[s.Task.Concept] {
				deadOnce[s.Task.Concept] = true
				return errors.New("service crashed")
			}
			return nil
		},
	}
	exec := e.Execute(minePlan(t))
	if !exec.Succeeded {
		t.Fatalf("should survive single failures via re-binding: %+v", exec.Err)
	}
	if exec.Rebinds() == 0 {
		t.Fatal("expected re-binding events")
	}
}

func TestExecuteFailsWhenAllCandidatesDie(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	e := &Engine{
		Brokers: brokers, Onto: o,
		MaxAttempts: 5,
		Invoke:      func(*ontology.Profile, Step) error { return errors.New("down") },
	}
	exec := e.Execute(minePlan(t))
	if exec.Succeeded {
		t.Fatal("execution should fail when every candidate dies")
	}
	if exec.Err == nil {
		t.Fatal("terminal error missing")
	}
	if !exec.Abandoned {
		t.Fatal("failed execution should be marked abandoned")
	}
	// One or two transient failures must NOT deregister a service: the
	// breaker quarantines it; only DeregisterAfter consecutive failures
	// confirm death. Each candidate failed at most twice here (initial
	// list + one rediscovery), below the default threshold of 3.
	still := 0
	for _, p := range brokers[0].Reg.Profiles() {
		if p.Concept == "DecisionTreeService" {
			still++
		}
	}
	if still != 2 {
		t.Fatalf("transiently-failing services withdrawn from registry: %d of 2 left", still)
	}
}

func TestExecuteConfirmsDeadAtThreshold(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	e := &Engine{
		Brokers: brokers, Onto: o,
		MaxAttempts: 8,
		Invoke:      func(*ontology.Profile, Step) error { return errors.New("down") },
	}
	// Each execution fails every candidate twice (initial list +
	// rediscovery); the second crosses the DefaultDeregisterAfter threshold.
	for run := 0; run < 2; run++ {
		if exec := e.Execute(minePlan(t)); exec.Succeeded {
			t.Fatal("execution should fail when every candidate dies")
		}
	}
	for _, p := range brokers[0].Reg.Profiles() {
		if p.Concept == "DecisionTreeService" {
			t.Fatalf("confirmed-dead service %s still advertised", p.Name)
		}
	}
}

func TestConfirmDeadOnHealthVerdict(t *testing.T) {
	brokers, o := testWorld(t, 2, 2)
	e := &Engine{
		Brokers: brokers, Onto: o, Strategy: Proactive,
		Invoke: func(*ontology.Profile, Step) error { return nil },
	}
	plan := minePlan(t)
	e.Prebind(plan)
	victim := "DecisionTreeService-0"
	e.ConfirmDead(victim)
	for _, b := range brokers {
		for _, p := range b.Reg.Profiles() {
			if p.Name == victim {
				t.Fatalf("ConfirmDead left %s advertised on %s", victim, b.Name)
			}
		}
	}
	// The proactive cache must not serve the dead binding either.
	exec := e.Execute(plan)
	if !exec.Succeeded {
		t.Fatal(exec.Err)
	}
	for _, s := range exec.Steps {
		if s.Service == victim {
			t.Fatalf("step %s still bound to confirmed-dead %s", s.Task, victim)
		}
	}
}

func TestExecuteUnboundStep(t *testing.T) {
	brokers, o := testWorld(t, 1, 1)
	e := &Engine{Brokers: brokers, Onto: o, Invoke: func(*ontology.Profile, Step) error { return nil }}
	plan := []Step{{Task: &Task{Name: "impossible", Concept: "NavierStokesSolver"}}}
	exec := e.Execute(plan)
	if exec.Succeeded || !errors.Is(exec.Err, ErrUnbound) {
		t.Fatalf("err = %v, want ErrUnbound", exec.Err)
	}
}

func TestExecuteOptionalStepDegrades(t *testing.T) {
	brokers, o := testWorld(t, 1, 1)
	plan := minePlan(t)
	// Make an unbindable optional step in the middle.
	opt := Step{Task: &Task{Name: "enrich", Concept: "NavierStokesSolver", Optional: true}}
	plan = append(plan[:2:2], append([]Step{opt}, plan[2:]...)...)
	e := &Engine{Brokers: brokers, Onto: o, Invoke: func(*ontology.Profile, Step) error { return nil }}
	exec := e.Execute(plan)
	if !exec.Succeeded {
		t.Fatalf("optional failure must not abort: %+v", exec.Err)
	}
	if !exec.Degraded {
		t.Fatal("execution should be marked degraded")
	}
}

func TestCentralizedCoordinatorSinglePointOfFailure(t *testing.T) {
	brokers, o := testWorld(t, 3, 2)
	invoke := func(*ontology.Profile, Step) error { return nil }
	down := map[string]bool{"broker-0": true}

	central := &Engine{Brokers: brokers, Onto: o, Invoke: invoke, Mode: Centralized, BrokerDown: down}
	if exec := central.Execute(minePlan(t)); exec.Succeeded || !errors.Is(exec.Err, ErrNoBroker) {
		t.Fatalf("centralized should fail with coordinator down: %+v", exec.Err)
	}

	dist := &Engine{Brokers: brokers, Onto: o, Invoke: invoke, Mode: Distributed, BrokerDown: down}
	if exec := dist.Execute(minePlan(t)); !exec.Succeeded {
		t.Fatalf("distributed should survive broker-0 down: %+v", exec.Err)
	}
}

func TestProactivePrebindAndCacheHit(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	calls := 0
	e := &Engine{
		Brokers: brokers, Onto: o, Strategy: Proactive,
		Invoke: func(*ontology.Profile, Step) error { calls++; return nil },
	}
	plan := minePlan(t)
	// mine plan uses 3 distinct concepts (DecisionTreeService twice).
	if bound := e.Prebind(plan); bound != 3 {
		t.Fatalf("prebound = %d, want 3", bound)
	}
	exec := e.Execute(plan)
	if !exec.Succeeded {
		t.Fatal(exec.Err)
	}
	hits := 0
	for _, s := range exec.Steps {
		if s.CacheHit {
			hits++
		}
	}
	if hits != len(exec.Steps) {
		t.Fatalf("cache hits = %d, want %d", hits, len(exec.Steps))
	}
}

func TestProactiveFallsBackWhenServiceVanishes(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	e := &Engine{
		Brokers: brokers, Onto: o, Strategy: Proactive,
		Invoke: func(*ontology.Profile, Step) error { return nil },
	}
	plan := minePlan(t)
	e.Prebind(plan)
	// All pre-bound services vanish (lease expiry simulated by
	// deregistering); remaining -1 instances still exist.
	for _, c := range []string{"DecisionTreeService", "FourierSpectrumService", "DataMiningService"} {
		brokers[0].Reg.Deregister(c + "-0")
	}
	exec := e.Execute(plan)
	if !exec.Succeeded {
		t.Fatalf("proactive must fall back to discovery: %+v", exec.Err)
	}
}

func TestShortLivedServices(t *testing.T) {
	o := ontology.Pervasive()
	m := discovery.NewSemanticMatcher(o)
	b := discovery.NewBroker("b", m)
	clk := obs.NewFakeClock()
	b.Reg.Clock = clk

	p := &ontology.Profile{Name: "ephemeral", Concept: "DecisionTreeService"}
	if _, err := b.Reg.Register(p, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Brokers: []*discovery.Broker{b}, Onto: o,
		Invoke: func(*ontology.Profile, Step) error { return nil }}
	plan := []Step{{Task: &Task{Name: "t", Concept: "DecisionTreeService"}}}
	if exec := e.Execute(plan); !exec.Succeeded {
		t.Fatalf("service should be visible while alive: %+v", exec.Err)
	}
	clk.Advance(10 * time.Second)
	if exec := e.Execute(plan); exec.Succeeded {
		t.Fatal("service should have disappeared after its lifetime")
	}
}

func TestExecuteNeedsInvoker(t *testing.T) {
	brokers, o := testWorld(t, 1, 1)
	e := &Engine{Brokers: brokers, Onto: o}
	if exec := e.Execute(minePlan(t)); exec.Succeeded || exec.Err == nil {
		t.Fatal("missing invoker should fail")
	}
}

func TestModeAndStrategyStrings(t *testing.T) {
	if Centralized.String() != "centralized" || Distributed.String() != "distributed" {
		t.Fatal("mode names")
	}
	if Reactive.String() != "reactive" || Proactive.String() != "proactive" {
		t.Fatal("strategy names")
	}
}

func TestUnorderedPlanGroups(t *testing.T) {
	l := NewLibrary()
	for _, task := range []*Task{
		{Name: "fuse-intel", Subtasks: []string{"gather", "analyse"}},
		// The three sensor pulls are independent: fetch concurrently.
		{Name: "gather", Unordered: true, Subtasks: []string{"radar", "acoustic", "weather"}},
		{Name: "radar", Concept: "RadarSensor"},
		{Name: "acoustic", Concept: "AcousticSensor"},
		{Name: "weather", Concept: "WeatherData"},
		{Name: "analyse", Concept: "DataMiningService"},
	} {
		if err := l.Define(task); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := l.Plan("fuse-intel")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan = %d steps", len(plan))
	}
	// The three gather steps share a group; analyse has its own.
	g := plan[0].Group
	if plan[1].Group != g || plan[2].Group != g {
		t.Fatalf("gather steps not grouped: %d %d %d", plan[0].Group, plan[1].Group, plan[2].Group)
	}
	if plan[3].Group == g {
		t.Fatal("analyse should be in its own group")
	}
}

func TestParallelGroupLatencyIsMax(t *testing.T) {
	o := ontology.Pervasive()
	m := discovery.NewSemanticMatcher(o)
	b := discovery.NewBroker("b", m)
	for _, c := range []string{"RadarSensor", "AcousticSensor", "WeatherData", "DataMiningService"} {
		if _, err := b.Reg.Register(&ontology.Profile{Name: c + "-1", Concept: c}, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	l := NewLibrary()
	for _, task := range []*Task{
		{Name: "par", Unordered: true, Subtasks: []string{"r", "a", "w"}},
		{Name: "seq", Subtasks: []string{"r2", "a2", "w2"}},
		{Name: "r", Concept: "RadarSensor"}, {Name: "a", Concept: "AcousticSensor"}, {Name: "w", Concept: "WeatherData"},
		{Name: "r2", Concept: "RadarSensor"}, {Name: "a2", Concept: "AcousticSensor"}, {Name: "w2", Concept: "WeatherData"},
	} {
		if err := l.Define(task); err != nil {
			t.Fatal(err)
		}
	}
	engine := func() *Engine {
		return &Engine{
			Brokers: []*discovery.Broker{b}, Onto: o,
			DiscoveryCost: 0.1, InvokeCost: 0.5,
			Invoke: func(*ontology.Profile, Step) error { return nil },
		}
	}
	parPlan, err := l.Plan("par")
	if err != nil {
		t.Fatal(err)
	}
	seqPlan, err := l.Plan("seq")
	if err != nil {
		t.Fatal(err)
	}
	par := engine().Execute(parPlan)
	seq := engine().Execute(seqPlan)
	if !par.Succeeded || !seq.Succeeded {
		t.Fatalf("executions failed: %v %v", par.Err, seq.Err)
	}
	// Sequential: 3 * (0.1 + 0.5) = 1.8; parallel: max = 0.6.
	if par.Latency >= seq.Latency {
		t.Fatalf("parallel latency %v should beat sequential %v", par.Latency, seq.Latency)
	}
	if par.Latency > 0.6001 {
		t.Fatalf("parallel latency %v, want ~0.6 (max of group)", par.Latency)
	}
}

func TestGroupLatencyEmpty(t *testing.T) {
	if groupLatency(nil) != 0 {
		t.Fatal("empty plan latency should be 0")
	}
}

// Property: a plan contains exactly the primitive tasks reachable from the
// goal, in left-to-right order, regardless of nesting shape.
func TestPropertyPlanCountsPrimitives(t *testing.T) {
	build := func(depth, width uint8) (*Library, string, int) {
		l := NewLibrary()
		d := 1 + int(depth)%3
		w := 1 + int(width)%3
		primitives := 0
		var define func(name string, level int) // returns via closure
		define = func(name string, level int) {
			if level >= d {
				l.Define(&Task{Name: name, Concept: "Service"}) //nolint:errcheck
				primitives++
				return
			}
			var subs []string
			for i := 0; i < w; i++ {
				sub := fmt.Sprintf("%s-%d", name, i)
				subs = append(subs, sub)
				define(sub, level+1)
			}
			l.Define(&Task{Name: name, Subtasks: subs, Unordered: level%2 == 1}) //nolint:errcheck
		}
		define("root", 0)
		return l, "root", primitives
	}
	f := func(depth, width uint8) bool {
		l, goal, want := build(depth, width)
		plan, err := l.Plan(goal)
		if err != nil {
			return false
		}
		return len(plan) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: group latency never exceeds the plain sum of step latencies
// and never undercuts the largest single step.
func TestPropertyGroupLatencyBounds(t *testing.T) {
	f := func(lat []uint16, groups []uint8) bool {
		var steps []StepReport
		sum, max := 0.0, 0.0
		for i, l := range lat {
			g := 0
			if i < len(groups) {
				g = int(groups[i]) % 4
			}
			v := float64(l) / 100
			steps = append(steps, StepReport{Latency: v, Group: g})
			sum += v
			if v > max {
				max = v
			}
		}
		got := groupLatency(steps)
		return got <= sum+1e-9 && got >= max-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProactiveCacheStalenessAfterDeregister pins the cache-hit path's
// staleness contract: a binding whose service deregistered is not served
// from cache (stillAdvertised check at bind time) and the step migrates
// to a substitute.
func TestProactiveCacheStalenessAfterDeregister(t *testing.T) {
	brokers, o := testWorld(t, 1, 2)
	e := &Engine{
		Brokers: brokers, Onto: o, Strategy: Proactive,
		Invoke: func(*ontology.Profile, Step) error { return nil },
	}
	plan := minePlan(t)
	if bound := e.Prebind(plan); bound != 3 {
		t.Fatalf("prebound = %d, want 3", bound)
	}
	victim := e.cache["DecisionTreeService"]
	if victim == nil {
		t.Fatal("no cached DecisionTreeService binding")
	}
	brokers[0].Reg.Deregister(victim.Name)

	exec := e.Execute(plan)
	if !exec.Succeeded {
		t.Fatalf("stale cache must fall back to discovery: %+v", exec.Err)
	}
	for _, s := range exec.Steps {
		if s.Service == victim.Name {
			t.Fatalf("step %s served from stale cache binding %s", s.Task, victim.Name)
		}
		if s.Task == "generate-trees" && s.CacheHit {
			t.Fatal("deregistered binding still counted as a cache hit")
		}
	}
	// The fallback re-populates the cache with the substitute it found.
	if repl := e.cache["DecisionTreeService"]; repl == nil || repl.Name == victim.Name {
		t.Fatalf("cache after fallback = %v, want live substitute", repl)
	}

}
