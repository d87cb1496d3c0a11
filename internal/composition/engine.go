package composition

import (
	"errors"
	"fmt"

	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/supervise"
)

// Mode selects the coordination architecture the paper contrasts:
// centralized broker-based coordination versus distributed coordination
// across brokers.
type Mode int

// Coordination modes.
const (
	// Centralized coordinates every step through the first broker; if
	// that broker is down the composition fails outright.
	Centralized Mode = iota
	// Distributed lets each step use any live broker, surviving broker
	// failures.
	Distributed
)

func (m Mode) String() string {
	if m == Distributed {
		return "distributed"
	}
	return "centralized"
}

// BindStrategy selects when services are bound to steps.
type BindStrategy int

// Binding strategies.
const (
	// Reactive discovers services at execution time, per step — the
	// paper's "re-actively integrate and execute services".
	Reactive BindStrategy = iota
	// Proactive pre-resolves bindings ahead of execution ("pro-actively
	// compute some generic information about services") and falls back
	// to discovery when a cached binding has vanished.
	Proactive
)

func (s BindStrategy) String() string {
	if s == Proactive {
		return "proactive"
	}
	return "reactive"
}

// Invoker calls a bound service for a step. Experiments inject failure
// behaviour here; real deployments route an envelope to the provider agent.
type Invoker func(p *ontology.Profile, step Step) error

// Engine executes plans against discovered services.
type Engine struct {
	// Brokers are the available discovery brokers; at least one is
	// required. Centralized mode uses only Brokers[0].
	Brokers []*discovery.Broker
	// Onto is the shared vocabulary.
	Onto *ontology.Ontology
	// Invoke performs a service call; required.
	Invoke Invoker
	// Mode picks the coordination architecture.
	Mode Mode
	// Strategy picks reactive or proactive binding.
	Strategy BindStrategy
	// MaxAttempts bounds invocation attempts per step, counting the
	// first try (default 3).
	MaxAttempts int
	// DiscoveryCost and InvokeCost are the modelled per-operation
	// latencies accumulated into Execution.Latency.
	DiscoveryCost, InvokeCost float64
	// BrokerDown marks brokers (by name) as failed for coordination
	// experiments.
	BrokerDown map[string]bool
	// Breakers, when set, gates candidates by per-service circuit state:
	// a candidate whose breaker is open is skipped without burning an
	// invocation attempt, and every invocation outcome feeds back into
	// the breaker — so a service that keeps failing compositions stops
	// being tried at all until its cool-down elapses.
	Breakers *supervise.BreakerSet
	// Metrics, when set, receives composition counters
	// (composition_executions_total, composition_abandoned_total, ...).
	Metrics *obs.Registry

	// cache holds proactive bindings keyed by step concept.
	cache map[string]*ontology.Profile
	// failStreak counts consecutive invocation failures per service,
	// reset on success; reaching DefaultDeregisterAfter confirms death.
	failStreak map[string]int
}

// DefaultDeregisterAfter is how many consecutive invocation failures
// confirm a service dead and withdraw its advertisement from every broker.
// Below it a failing service is only quarantined by its breaker: transient
// failures must not permanently nuke a registration.
const DefaultDeregisterAfter = 3

// minBindScore is the minimum discovery score for a service to be
// bindable to a step. Composition needs substitutable services, a higher
// bar than browsing-style fuzzy discovery.
const minBindScore = 0.75

// StepReport records one step's execution.
type StepReport struct {
	Task     string
	Service  string // bound service name ("" when unbound)
	Attempts int
	Rebinds  int
	// BreakerSkips counts candidates passed over because their circuit
	// breaker was open; skips do not consume invocation attempts.
	BreakerSkips int
	OK           bool
	Optional     bool
	// CacheHit marks a proactive binding that was used directly.
	CacheHit bool
	// Avoided counts candidates passed over because the caller marked
	// their service degraded (adaptive re-composition steering around a
	// known-bad binding before its breaker opens).
	Avoided int
	// Group echoes the step's parallel group.
	Group int
	// Latency is this step's modelled cost contribution.
	Latency float64
}

// Execution is the outcome of running one plan.
type Execution struct {
	Steps []StepReport
	// Succeeded means every required step completed.
	Succeeded bool
	// Degraded means at least one optional step failed while the
	// composite still succeeded.
	Degraded bool
	// Replans counts mid-conversation re-plans (always 0 from
	// Engine.Execute, which has no alternative plans).
	Replans int
	// Migrations counts steps completed on a substitute service after a
	// degradation signal fired against their original binding.
	Migrations int
	// Abandoned marks a conversation that was dropped: it failed and no
	// (further) re-plan could rescue it.
	Abandoned bool
	// Latency is the modelled cost (discovery + invocations).
	Latency float64
	// Err carries the terminal failure when Succeeded is false.
	Err error
}

// ErrNoBroker reports a composition with no live coordinator.
var ErrNoBroker = errors.New("composition: no live broker")

// ErrUnbound reports a step with no matching service.
var ErrUnbound = errors.New("composition: no service matches step")

// liveBrokers returns the brokers usable under the engine's mode.
func (e *Engine) liveBrokers() []*discovery.Broker {
	var candidates []*discovery.Broker
	if e.Mode == Centralized {
		if len(e.Brokers) > 0 {
			candidates = e.Brokers[:1]
		}
	} else {
		candidates = e.Brokers
	}
	var live []*discovery.Broker
	for _, b := range candidates {
		if b != nil && !e.BrokerDown[b.Name] {
			live = append(live, b)
		}
	}
	return live
}

// discover returns the best max ranked candidates for a step (every one
// when max is 0) from the live brokers, charging the per-lookup cost to
// *cost. The bound rides in the request, so a broker selects the top max
// instead of ranking its whole registry.
func (e *Engine) discover(step Step, max int, cost *float64) ([]discovery.Match, error) {
	live := e.liveBrokers()
	if len(live) == 0 {
		return nil, ErrNoBroker
	}
	req := ontology.Request{Concept: step.Task.Concept, Outputs: step.Task.Outputs, Max: max}
	for _, b := range live {
		*cost += e.DiscoveryCost
		ms := b.Lookup(req, 0)
		// Ranked best first: the bindable matches are a prefix.
		n := 0
		for n < len(ms) && ms[n].Score >= minBindScore {
			n++
		}
		if n > 0 {
			return ms[:n], nil // nearest live broker that can answer wins
		}
	}
	return nil, nil
}

// Prebind resolves and caches a binding for every primitive concept in the
// plan — the proactive phase. Concepts with no current match are skipped
// (execution will fall back to discovery).
func (e *Engine) Prebind(plan []Step) int {
	if e.cache == nil {
		e.cache = map[string]*ontology.Profile{}
	}
	bound := 0
	var scratch float64
	for _, s := range plan {
		if _, ok := e.cache[s.Task.Concept]; ok {
			continue
		}
		ms, err := e.discover(s, 1, &scratch)
		if err == nil && len(ms) > 0 {
			e.cache[s.Task.Concept] = ms[0].Profile
			bound++
		}
	}
	return bound
}

// stillAdvertised reports whether a cached profile is still live on any
// usable broker.
func (e *Engine) stillAdvertised(p *ontology.Profile) bool {
	for _, b := range e.liveBrokers() {
		if b.Reg.Has(p.Name) {
			return true
		}
	}
	return false
}

// runStep binds and invokes one step: proactively from cache or
// reactively by discovery, trying candidates in rank order up to
// MaxAttempts. Candidates whose breaker is open, or whose service the
// caller marked in avoid, are skipped without burning an attempt. A
// non-nil error is terminal for the whole plan (no live broker); a
// report with OK unset is a step failure the caller may degrade,
// abandon, or re-plan around.
//
// Discovery is asked for a window of the ranking, not all of it: one
// candidate per attempt plus one per service to steer around. Only when
// skips use up a full window is the whole ranking fetched, so the
// candidates are tried in exactly the order the full list would give.
func (e *Engine) runStep(step Step, avoid map[string]bool) (StepReport, error) {
	report := StepReport{Task: step.Task.Name, Optional: step.Task.Optional, Group: step.Group}
	maxAttempts := e.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 3
	}

	// A step discovers at most twice: once to bind, and once more when
	// its list runs dry, in case new services have appeared since. A
	// proactive binding stands in for the first.
	var candidates []*ontology.Profile
	lookups := 2
	if e.Strategy == Proactive {
		if p, ok := e.cache[step.Task.Concept]; ok && e.stillAdvertised(p) {
			candidates = append(candidates, p)
			report.CacheHit = true
			lookups = 1
		}
	}

	// Try candidates in rank order, popping each.
	window := maxAttempts + len(avoid)
	var windowed []discovery.Match // the last window, while it came back full
	for report.Attempts < maxAttempts {
		if len(candidates) == 0 {
			var ms []discovery.Match
			var err error
			switch {
			case windowed != nil:
				// Skips used up a full window, so usable candidates may
				// rank below it: carry on down the whole ranking. This
				// continues the same discovery and is not charged again.
				var free float64
				ms, err = e.discover(step, 0, &free)
				ms = belowWindow(ms, windowed)
				windowed = nil
			case lookups > 0:
				lookups--
				ms, err = e.discover(step, window, &report.Latency)
				if len(ms) == window {
					windowed = ms
				}
			default:
				return report, nil // nothing left to try
			}
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
			// The caller knows this service is degraded (signal fired
			// against it); steer to a substitute without burning an
			// attempt.
			report.Avoided++
			continue
		}
		if e.Breakers != nil && !e.Breakers.Allow(p.Name) {
			// Open circuit: this service is known-bad right now.
			// Skip to the next candidate without burning an
			// attempt — the breaker already paid for the failures
			// that opened it.
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
		// Fault tolerance: feed the failure to the breaker (which
		// quarantines a flapping service without forgetting it), drop
		// any stale proactive binding, and re-bind to the next
		// candidate. Only a confirmed-dead service — DefaultDeregisterAfter
		// consecutive failures — is withdrawn from the registries; a
		// single transient failure must not permanently deregister it.
		if e.Breakers != nil {
			e.Breakers.Failure(p.Name)
		}
		report.Rebinds++
		delete(e.cache, step.Task.Concept)
		e.noteFailure(p.Name)
	}
	return report, nil
}

// belowWindow filters a full ranking down to the matches that were not in
// the window already tried, keeping their order.
func belowWindow(all, window []discovery.Match) []discovery.Match {
	tried := make(map[string]bool, len(window))
	for _, m := range window {
		tried[m.Profile.Name] = true
	}
	out := all[:0]
	for _, m := range all {
		if !tried[m.Profile.Name] {
			out = append(out, m)
		}
	}
	return out
}

// noteFailure bumps a service's consecutive-failure streak and confirms
// it dead at the DefaultDeregisterAfter threshold.
func (e *Engine) noteFailure(service string) {
	if e.failStreak == nil {
		e.failStreak = map[string]int{}
	}
	e.failStreak[service]++
	if e.failStreak[service] >= DefaultDeregisterAfter {
		e.ConfirmDead(service)
	}
}

// ConfirmDead withdraws a service's advertisement from every broker and
// forgets its proactive bindings — the confirmed-dead path, reached by
// DefaultDeregisterAfter consecutive failures or an external Down health
// verdict (Adaptive wires monitor verdicts here).
func (e *Engine) ConfirmDead(service string) {
	for _, b := range e.Brokers {
		if b != nil {
			b.Reg.Deregister(service)
		}
	}
	for c, p := range e.cache {
		if p.Name == service {
			delete(e.cache, c)
		}
	}
	delete(e.failStreak, service)
	if e.Metrics != nil {
		e.Metrics.Counter("composition_confirmed_dead_total").Inc()
	}
}

// Execute runs the plan. Each step is bound (proactively from cache or
// reactively by discovery) and invoked; on invocation failure the engine
// feeds the breaker, re-binds to the next candidate up to MaxAttempts,
// and withdraws only confirmed-dead services (DefaultDeregisterAfter
// consecutive failures). Optional-step failure degrades instead of
// aborting. It is the adaptive executor's step loop with a single plan
// and nothing to adapt with: no alternatives, no re-plan budget, no
// signal sources, no watch goroutine.
func (e *Engine) Execute(plan []Step) Execution {
	if e.Invoke == nil {
		return Execution{Err: fmt.Errorf("composition: engine has no invoker")}
	}
	static := Adaptive{Engine: e}
	return static.execute([][]Step{plan}, nil, 0)
}

// stepFailure builds the terminal error for a failed required step.
func stepFailure(step Step, report StepReport) error {
	if report.Attempts == 0 {
		return fmt.Errorf("%w: %s (%s)", ErrUnbound, step.Task.Name, step.Task.Concept)
	}
	return fmt.Errorf("composition: step %s failed after %d attempts", step.Task.Name, report.Attempts)
}

// record exports one execution's outcome into the metrics registry.
func (e *Engine) record(exec *Execution) {
	if e.Metrics == nil {
		return
	}
	e.Metrics.Counter("composition_executions_total").Inc()
	if exec.Abandoned {
		e.Metrics.Counter("composition_abandoned_total").Inc()
	}
	if exec.Replans > 0 {
		e.Metrics.Counter("composition_replans_total").Add(float64(exec.Replans))
	}
	if exec.Migrations > 0 {
		e.Metrics.Counter("composition_migrations_total").Add(float64(exec.Migrations))
	}
}

// groupLatency totals step latencies with parallel groups collapsed to
// their slowest member: steps sharing a Group ran concurrently on
// independent services, so the group contributes its maximum, while
// distinct groups are sequential and sum.
func groupLatency(steps []StepReport) float64 {
	maxPerGroup := map[int]float64{}
	var order []int
	for _, s := range steps {
		if _, ok := maxPerGroup[s.Group]; !ok {
			order = append(order, s.Group)
		}
		if s.Latency > maxPerGroup[s.Group] {
			maxPerGroup[s.Group] = s.Latency
		}
	}
	total := 0.0
	for _, g := range order {
		total += maxPerGroup[g]
	}
	return total
}

// Rebinds sums re-binding events across steps.
func (x Execution) Rebinds() int {
	n := 0
	for _, s := range x.Steps {
		n += s.Rebinds
	}
	return n
}
