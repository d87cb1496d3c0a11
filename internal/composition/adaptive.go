package composition

import (
	"fmt"
	"sync"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/supervise"
)

// SignalKind identifies a degradation signal's source.
type SignalKind string

// Degradation signal sources.
const (
	// SignalBreakerOpen fires when a service's circuit breaker opens.
	SignalBreakerOpen SignalKind = "breaker-open"
	// SignalHealth fires when the fleet monitor's verdict for a node
	// hosting a bound service decays to Suspect or Down.
	SignalHealth SignalKind = "health"
	// SignalCost fires when a service's observed invocation cost crosses
	// the configured threshold.
	SignalCost SignalKind = "cost"
)

// Signal is one degradation report against a service.
type Signal struct {
	Kind    SignalKind
	Service string
	// Dead marks the service confirmed dead (a Down health verdict): the
	// executor additionally withdraws its advertisements and proactive
	// bindings via Engine.ConfirmDead.
	Dead bool
	// At is when the signal was observed (stamped by Degrade when zero);
	// the gap to the re-plan that answers it is the adaptation latency.
	At time.Time
	// Detail carries a human-readable cause for events and logs.
	Detail string
}

// CompletedStep is one finished step's carried-forward record: enough to
// skip the step after a migration and still credit its outputs to the
// dataflow of the replacement plan.
type CompletedStep struct {
	Task    string
	Service string
	Outputs []string
	Group   int
	Latency float64
}

// Handoff is the conversation's migration state, in the style of
// agent.Checkpointer snapshots: the initially-available data concepts
// plus every completed step with its outputs. A re-planned or migrated
// conversation resumes from a Handoff so completed work is never redone.
type Handoff struct {
	Initial   []string
	Completed map[string]CompletedStep
}

// NewHandoff starts an empty handoff with the given initial data.
func NewHandoff(initial []string) *Handoff {
	return &Handoff{Initial: append([]string(nil), initial...), Completed: map[string]CompletedStep{}}
}

// done reports whether a step already completed before a migration. The
// static engine carries no handoff (nil): nothing is ever carried forward.
func (h *Handoff) done(task string) bool {
	if h == nil {
		return false
	}
	_, ok := h.Completed[task]
	return ok
}

// Complete records a finished step (a no-op without a handoff).
func (h *Handoff) Complete(step Step, rep StepReport) {
	if h == nil {
		return
	}
	if h.Completed == nil {
		h.Completed = map[string]CompletedStep{}
	}
	h.Completed[step.Task.Name] = CompletedStep{
		Task:    step.Task.Name,
		Service: rep.Service,
		Outputs: append([]string(nil), step.Task.Outputs...),
		Group:   step.Group,
		Latency: rep.Latency,
	}
}

// Available returns the data concepts the conversation has produced so
// far (initial + every completed step's outputs) — the initial set a
// candidate replacement plan's remaining steps must validate against.
func (h *Handoff) Available() []string {
	out := append([]string(nil), h.Initial...)
	for _, c := range h.Completed {
		out = append(out, c.Outputs...)
	}
	return out
}

// Adaptive executes a goal with mid-conversation re-planning: it
// subscribes to degradation signals (breaker transitions, health
// verdicts, observed cost) and, when one fires against a service bound
// to a remaining or in-flight step, re-plans the rest of the HTN via the
// library's alternative decompositions and migrates the conversation to
// substitute services, carrying completed step outputs forward in a
// Handoff so finished work is never redone.
type Adaptive struct {
	// Engine executes individual steps; required. Its Metrics registry
	// (if any) also receives the adaptive counters.
	Engine *Engine
	// Library plans the goal; required (it holds the alternatives).
	Library *Library
	// Goal is the task to achieve.
	Goal string
	// Initial is the data available at conversation start.
	Initial []string
	// Clock times signals, steps, and phases (default obs.Real).
	Clock obs.Clock
	// Events, when set, receives one wide event per conversation with
	// plan/step/replan phases.
	Events *obs.EventLog
	// Node labels wide events (default "composer").
	Node string
	// MaxReplans bounds re-plans per conversation (default 3; negative =
	// none, reproducing the static engine).
	MaxReplans int
	// CostThreshold, when positive, fires a SignalCost against any
	// service whose observed invocation wall time exceeds it.
	CostThreshold time.Duration

	startOnce sync.Once
	stopOnce  sync.Once
	signals   chan Signal
	quit      chan struct{}
	watch     *supervise.Proc
	cancels   []func()

	mu       sync.Mutex
	degraded map[string]Signal // service -> most recent signal
	dirty    bool              // unabsorbed degradation since last check
	phases   []phaseMark       // wide-event phases for the current run
}

// signalBuffer sizes the signal queue. Enqueue is non-blocking: signals
// beyond a full buffer are counted and dropped, never stalling a breaker or
// monitor callback.
const signalBuffer = 64

func (a *Adaptive) clock() obs.Clock {
	if a.Clock != nil {
		return a.Clock
	}
	return obs.Real
}

func (a *Adaptive) metrics() *obs.Registry {
	if a.Engine != nil {
		return a.Engine.Metrics
	}
	return nil
}

// Start launches the watch loop (a supervise.Spawn'd goroutine draining
// degradation signals into the avoid set) and arms cost observation by
// wrapping the engine's invoker. Run calls it implicitly; calling it
// early lets signals accumulate before the conversation begins.
func (a *Adaptive) Start() {
	a.startOnce.Do(func() {
		a.signals = make(chan Signal, signalBuffer)
		a.quit = make(chan struct{})
		a.degraded = map[string]Signal{}
		if a.CostThreshold > 0 && a.Engine != nil && a.Engine.Invoke != nil {
			inner := a.Engine.Invoke
			clk := a.clock()
			threshold := a.CostThreshold
			a.Engine.Invoke = func(p *ontology.Profile, step Step) error {
				start := clk.Now()
				err := inner(p, step)
				if elapsed := clk.Now().Sub(start); elapsed > threshold {
					a.Degrade(Signal{Kind: SignalCost, Service: p.Name, At: start,
						Detail: fmt.Sprintf("invoke took %v (threshold %v)", elapsed, threshold)})
				}
				return err
			}
		}
		a.watch = supervise.Spawn("composition-adaptive-watch", a.watchLoop)
	})
}

// Stop halts the watch loop and detaches every subscription installed
// through WatchBreakers/WatchHealth-style cancels.
func (a *Adaptive) Stop() {
	for _, cancel := range a.cancels {
		cancel()
	}
	a.cancels = nil
	a.stopOnce.Do(func() {
		if a.quit != nil {
			close(a.quit)
		}
	})
	if a.watch != nil {
		<-a.watch.Done()
	}
}

// watchLoop drains degradation signals into the avoid set. It re-arms a
// heartbeat on the executor's clock so a FakeClock-driven test can step
// it deterministically and an idle loop still observes Stop promptly.
func (a *Adaptive) watchLoop() {
	clk := a.clock()
	for {
		select {
		case sig := <-a.signals:
			a.absorb(sig)
		case <-clk.After(time.Second):
			// Heartbeat: nothing to do, re-arm.
		case <-a.quit:
			return
		}
	}
}

// absorb folds one signal into the degraded set.
func (a *Adaptive) absorb(sig Signal) {
	a.mu.Lock()
	prev, known := a.degraded[sig.Service]
	if !known || !prev.Dead { // a Dead verdict is never downgraded
		a.degraded[sig.Service] = sig
	}
	a.dirty = true
	a.mu.Unlock()
	if reg := a.metrics(); reg != nil {
		reg.Counter("composition_signals_total", "kind", string(sig.Kind)).Inc()
	}
}

// Degrade reports a degradation signal against a service. Non-blocking
// and safe from any goroutine — including breaker onChange hooks (which
// run under the breaker's mutex) and monitor health callbacks: when the
// buffer is full the signal is dropped and counted, never stalling the
// caller.
func (a *Adaptive) Degrade(sig Signal) {
	a.Start()
	if sig.At.IsZero() {
		sig.At = a.clock().Now()
	}
	select {
	case a.signals <- sig:
	default:
		if reg := a.metrics(); reg != nil {
			reg.Counter("composition_signals_dropped_total").Inc()
		}
	}
}

// WatchBreakers subscribes the executor to a breaker set: any breaker
// opening (failure-driven or health-forced) fires a SignalBreakerOpen
// against its target. The returned cancel is also invoked by Stop.
func (a *Adaptive) WatchBreakers(bs *supervise.BreakerSet) func() {
	cancel := bs.OnTransition(func(target string, from, to supervise.BreakerState) {
		if to == supervise.BreakerOpen {
			a.Degrade(Signal{Kind: SignalBreakerOpen, Service: target,
				Detail: fmt.Sprintf("breaker %s: %v -> %v", target, from, to)})
		}
	})
	a.cancels = append(a.cancels, cancel)
	return cancel
}

// snapshotDegraded copies the current degraded set, reporting whether
// new signals arrived since the last snapshot.
func (a *Adaptive) snapshotDegraded() (map[string]Signal, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fresh := a.dirty
	a.dirty = false
	if len(a.degraded) == 0 {
		return nil, fresh
	}
	out := make(map[string]Signal, len(a.degraded))
	for k, v := range a.degraded {
		out[k] = v
	}
	return out, fresh
}

// avoidSet derives the service-avoid set for runStep.
func avoidSet(degraded map[string]Signal) map[string]bool {
	if len(degraded) == 0 {
		return nil
	}
	out := make(map[string]bool, len(degraded))
	for svc := range degraded {
		out[svc] = true
	}
	return out
}

// boundTo reports whether any remaining step's current binding — the
// proactive cache entry or the top-ranked discovery candidate — is a
// degraded service: the "signal fired against a service bound to a
// remaining or in-flight step" condition that justifies a re-plan.
//
// Budget 46: this runs once per degradation signal (not per delivery).
// The top-1 discovery probe for uncached steps is Broker.Lookup (44), and
// the engine's request and broker list are the other 2.
//
//lint:hot budget=46
func (a *Adaptive) boundTo(remaining []Step, degraded map[string]Signal) bool {
	if len(degraded) == 0 {
		return false
	}
	var scratch float64
	for _, s := range remaining {
		if p, ok := a.Engine.cache[s.Task.Concept]; ok {
			if _, bad := degraded[p.Name]; bad {
				return true
			}
			continue
		}
		ms, err := a.Engine.discover(s, 1, &scratch)
		if err != nil || len(ms) == 0 {
			continue
		}
		if _, bad := degraded[ms[0].Profile.Name]; bad {
			return true
		}
	}
	return false
}

// Run executes the goal adaptively and returns the conversation outcome.
// The static engine's counters (attempts, rebinds, breaker skips) appear
// per step; Replans/Migrations/Abandoned summarise the adaptation.
func (a *Adaptive) Run() Execution {
	a.Start()
	clk := a.clock()
	started := clk.Now()
	fail := func(err error) Execution {
		exec := Execution{Err: err, Abandoned: true}
		if a.Engine != nil {
			a.Engine.record(&exec)
		}
		a.emit(started, &exec)
		return exec
	}
	if a.Engine == nil || a.Engine.Invoke == nil {
		return fail(fmt.Errorf("composition: adaptive executor needs an engine with an invoker"))
	}
	if a.Library == nil {
		return fail(fmt.Errorf("composition: adaptive executor needs a library"))
	}
	maxReplans := a.MaxReplans
	if maxReplans == 0 {
		maxReplans = 3
	}

	planStart := clk.Now()
	plans, err := a.Library.PlanRanked(a.Goal, DefaultMaxPlans)
	if err != nil {
		return fail(err)
	}
	a.phase("plan", planStart)

	exec := a.execute(plans, NewHandoff(a.Initial), maxReplans)
	a.emit(started, &exec)
	return exec
}

// execute is the one step loop both executors run: bind and invoke each
// step of the current plan, degrade on an optional step's failure, and on
// a required step's failure (or a fresh signal against a remaining step's
// binding) re-plan onto the best alternative in plans — or abandon when
// none is left or the re-plan budget is spent. Engine.Execute is the case
// of one plan, no budget, no handoff and no signal sources.
func (a *Adaptive) execute(plans [][]Step, hand *Handoff, maxReplans int) Execution {
	clk := a.clock()
	exec := Execution{}
	planIdx, plan, i := 0, plans[0], 0
	for i < len(plan) && exec.Err == nil {
		step := plan[i]
		if hand.done(step.Task.Name) {
			// Carried forward across a migration: never redone.
			i++
			continue
		}

		degraded, fresh := a.snapshotDegraded()
		a.applyDead(degraded)

		// A fresh signal against a service bound to a remaining step
		// triggers a proactive re-plan before that binding fails.
		if fresh && maxReplans > exec.Replans && a.boundTo(plan[i:], degraded) {
			if next, ok := a.replan(plans, planIdx, hand, degraded); ok {
				planIdx, plan, i = next, plans[next], 0
				exec.Replans++
				a.phase("replan", clk.Now())
				continue
			}
		}

		stepStart := clk.Now()
		report, termErr := a.Engine.runStep(step, avoidSet(degraded))
		exec.Steps = append(exec.Steps, report)
		a.phase("step:"+step.Task.Name, stepStart)

		if termErr == nil && report.OK {
			if report.Avoided > 0 || report.BreakerSkips > 0 {
				// A preferred candidate was passed over for a degraded
				// or quarantined service: the step migrated to a
				// substitute.
				exec.Migrations++
			}
			hand.Complete(step, report)
			i++
			continue
		}
		if termErr == nil && step.Task.Optional {
			exec.Degraded = true
			i++
			continue
		}

		// The step failed (or lost every broker). Re-plan onto an
		// alternative decomposition, keeping completed work; with no
		// budget or no alternative left, abandon.
		if exec.Replans < maxReplans {
			degraded, _ = a.snapshotDegraded()
			if next, ok := a.replan(plans, planIdx, hand, degraded); ok {
				planIdx, plan, i = next, plans[next], 0
				exec.Replans++
				a.phase("replan", clk.Now())
				continue
			}
		}
		exec.Err = termErr
		if termErr == nil {
			exec.Err = stepFailure(step, report)
		}
	}
	exec.Succeeded = exec.Err == nil
	exec.Abandoned = !exec.Succeeded
	exec.Latency = groupLatency(exec.Steps)
	a.Engine.record(&exec)
	return exec
}

// applyDead confirms Dead-signalled services dead on the engine
// (deregistration + cache drop). Runs on the executor goroutine so the
// engine stays single-threaded.
func (a *Adaptive) applyDead(degraded map[string]Signal) {
	for svc, sig := range degraded {
		if sig.Dead {
			a.Engine.ConfirmDead(svc)
		}
	}
}

// replan picks the best-ranked plan other than current whose remaining
// steps validate against the handoff's available data and whose bindings
// avoid the degraded set. A plan with clean bindings wins; failing that,
// any dataflow-valid alternative is taken (its steps will steer via the
// avoid set). Reports false when no alternative plan remains.
//
// Budget 53: at most MaxReplans runs per conversation. The boundTo
// discovery probe is 46 of it, dataflow validation 3, the handoff's
// available set 2 and the remaining steps 2; all are bounded by the
// ranked-plan cap.
//
//lint:hot budget=53
func (a *Adaptive) replan(plans [][]Step, current int, hand *Handoff, degraded map[string]Signal) (int, bool) {
	available := hand.Available()
	fallback := -1
	for idx, p := range plans {
		if idx == current {
			continue
		}
		remaining := remainingSteps(p, hand)
		if len(remaining) == 0 {
			return idx, true // everything already done under this plan
		}
		if err := ValidateDataflow(remaining, available, a.Engine.Onto); err != nil {
			continue
		}
		if !a.boundTo(remaining, degraded) {
			return idx, true
		}
		if fallback < 0 {
			fallback = idx
		}
	}
	if fallback >= 0 {
		return fallback, true
	}
	return 0, false
}

// remainingSteps filters a plan down to steps not yet completed.
func remainingSteps(plan []Step, hand *Handoff) []Step {
	out := make([]Step, 0, len(plan))
	for _, s := range plan {
		if !hand.done(s.Task.Name) {
			out = append(out, s)
		}
	}
	return out
}

// pending wide-event phases accumulated during Run.
type phaseMark struct {
	name string
	d    time.Duration
}

// phase records a named phase's duration since start.
func (a *Adaptive) phase(name string, start time.Time) {
	if a.Events == nil {
		return
	}
	a.mu.Lock()
	a.phases = append(a.phases, phaseMark{name, a.clock().Now().Sub(start)})
	a.mu.Unlock()
}

// emit publishes the conversation's wide event.
func (a *Adaptive) emit(started time.Time, exec *Execution) {
	if a.Events == nil {
		return
	}
	node := a.Node
	if node == "" {
		node = "composer"
	}
	ev := obs.NewEvent(node, obs.NewTraceID(), "adaptive", a.Goal, "composition", started)
	a.mu.Lock()
	for _, ph := range a.phases {
		ev.AddPhase(ph.name, ph.d)
	}
	a.phases = nil
	a.mu.Unlock()
	ev.SetAttr("replans", fmt.Sprintf("%d", exec.Replans))
	ev.SetAttr("migrations", fmt.Sprintf("%d", exec.Migrations))
	outcome := obs.OutcomeOK
	if exec.Abandoned {
		outcome = obs.OutcomeError
	}
	ev.Finish(outcome, a.clock().Now())
	a.Events.Emit(ev)
}
