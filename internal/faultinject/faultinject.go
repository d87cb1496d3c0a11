// Package faultinject wraps the agent platform's delivery primitives with
// seeded, deterministic fault injection: probabilistic envelope drop,
// added latency, duplication, and explicit partition windows. The paper
// demands a runtime that survives "low bandwidth, high latency, frequent
// disconnections and network topology changes"; this package is how the
// test suite *manufactures* those conditions on the real messaging path —
// not just in the simulated sensornet — so retry, reconnect, and
// dead-letter machinery can be exercised reproducibly.
//
// Faults are modelled as a lossy radio: a dropped envelope is silently
// swallowed (Deliver returns nil, RouteFunc returns true), exactly like a
// lost packet. Senders learn about it the only way a real sender can — by
// not hearing back — which is what forces the retry layer to do its job.
package faultinject

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Config parameterises an Injector.
type Config struct {
	// Seed makes the fault sequence deterministic (0 picks seed 1, so an
	// unconfigured injector is still reproducible).
	Seed int64
	// DropProb is the probability an envelope is silently dropped.
	DropProb float64
	// DupProb is the probability an envelope is delivered twice.
	DupProb float64
	// Latency delays each delivery by Latency plus a uniform random
	// amount in [0, LatencyJitter). Delayed deliveries happen on a
	// timer goroutine, so senders are not blocked.
	Latency       time.Duration
	LatencyJitter time.Duration
	// DropEveryN deterministically drops every Nth envelope (counted
	// across the injector) in addition to DropProb. Useful for tests
	// that need an exact loss pattern.
	DropEveryN int
	// PanicProb is the probability a wrapped handler panics instead of
	// handling its envelope — a crashing agent rather than a lossy link.
	// Only handlers wrapped with WrapHandler are affected.
	PanicProb float64
	// PanicEveryN deterministically panics on every Nth envelope a
	// wrapped handler sees (counted per injector), in addition to
	// PanicProb. Chaos tests use it to crash an agent at an exact point
	// in a conversation.
	PanicEveryN int
	// Clock supplies time for latency timers and partition healing;
	// nil means obs.Real. Tests can install an obs.FakeClock to step
	// injected latency deterministically.
	Clock obs.Clock
}

// Stats counts injected faults.
type Stats struct {
	// Seen counts envelopes that entered the injector.
	Seen uint64
	// Passed counts envelopes forwarded unharmed (delayed ones count
	// once delivered).
	Passed uint64
	// Dropped counts silently discarded envelopes.
	Dropped uint64
	// Duplicated counts extra copies delivered.
	Duplicated uint64
	// Delayed counts deliveries that went through the latency timer.
	Delayed uint64
	// Panicked counts handler invocations the injector crashed.
	Panicked uint64
}

// Injector decides each envelope's fate from a seeded RNG. One injector
// can wrap any number of deputies and routes; decisions interleave in
// wrap-call order, which is deterministic when the traffic is.
type Injector struct {
	mu          sync.Mutex
	rng         *rand.Rand
	cfg         Config
	clk         obs.Clock
	partitioned bool
	crashUntil  time.Time
	handleCount uint64

	// Each count Stats reports is one counter, published by
	// AttachMetrics.
	seen, passed, dropped, duplicated, delayed, panicked obs.Counter
}

// New builds an injector.
func New(cfg Config) *Injector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	clk := cfg.Clock
	if clk == nil {
		clk = obs.Real
	}
	return &Injector{rng: rand.New(rand.NewSource(seed)), cfg: cfg, clk: clk}
}

// SetPartitioned opens (true) or heals (false) a full partition: while
// partitioned every envelope is dropped regardless of DropProb.
func (in *Injector) SetPartitioned(p bool) {
	in.mu.Lock()
	in.partitioned = p
	in.mu.Unlock()
}

// CrashFor makes every wrapped handler panic on every envelope for the
// next d on the injector's clock — a crash-looping service. Supervision
// restarts the agent each time; the restart budget and breaker decide
// whether the loop is survivable.
func (in *Injector) CrashFor(d time.Duration) {
	in.mu.Lock()
	in.crashUntil = in.clk.Now().Add(d)
	in.mu.Unlock()
}

// Stats snapshots the fault counters under the lock that decides each
// envelope's fate, so Seen agrees with Dropped, Duplicated and Delayed
// (Passed counts deliveries, which may still be on a delay line).
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{
		Seen:       uint64(in.seen.Value()),
		Passed:     uint64(in.passed.Value()),
		Dropped:    uint64(in.dropped.Value()),
		Duplicated: uint64(in.duplicated.Value()),
		Delayed:    uint64(in.delayed.Value()),
		Panicked:   uint64(in.panicked.Value()),
	}
}

// AttachMetrics publishes the fault counters in reg as
// faultinject_{seen,passed,dropped,duplicated,delayed,panics}_total,
// so injected chaos shows up next to the platform's delivery metrics.
func (in *Injector) AttachMetrics(reg *obs.Registry) {
	reg.Publish(&in.seen, "faultinject_seen_total")
	reg.Publish(&in.passed, "faultinject_passed_total")
	reg.Publish(&in.dropped, "faultinject_dropped_total")
	reg.Publish(&in.duplicated, "faultinject_duplicated_total")
	reg.Publish(&in.delayed, "faultinject_delayed_total")
	reg.Publish(&in.panicked, "faultinject_panics_total")
}

// verdict is one envelope's fate.
type verdict struct {
	drop  bool
	dup   bool
	delay time.Duration
}

func (in *Injector) decide() verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.seen.Inc()
	v := verdict{}
	if in.partitioned {
		v.drop = true
	}
	if in.cfg.DropEveryN > 0 && uint64(in.seen.Value())%uint64(in.cfg.DropEveryN) == 0 {
		v.drop = true
	}
	if in.cfg.DropProb > 0 && in.rng.Float64() < in.cfg.DropProb {
		v.drop = true
	}
	if v.drop {
		in.dropped.Inc()
		return v
	}
	if in.cfg.DupProb > 0 && in.rng.Float64() < in.cfg.DupProb {
		v.dup = true
		in.duplicated.Inc()
	}
	if in.cfg.Latency > 0 || in.cfg.LatencyJitter > 0 {
		v.delay = in.cfg.Latency
		if in.cfg.LatencyJitter > 0 {
			v.delay += time.Duration(in.rng.Int63n(int64(in.cfg.LatencyJitter)))
		}
		in.delayed.Inc()
	}
	return v
}

// delayLine serialises deliveries for one wrapped target so injected
// latency cannot reorder envelopes: work is queued FIFO with its due
// time and drained by (at most) one goroutine in queue order. An
// undelayed envelope that arrives while earlier delayed work is pending
// queues behind it — a real slow link delays everything behind the slow
// packet; it does not let later packets overtake. In particular a
// duplicated envelope can no longer be overtaken by traffic injected
// after it (the pre-fix reordering bug).
type delayLine struct {
	clk     obs.Clock // set by the wrapping injector; never nil
	mu      sync.Mutex
	queue   []delayedItem
	running bool
}

type delayedItem struct {
	due time.Time
	run func()
}

// dispatch runs `run` after delay — inline when nothing is pending
// (reported by the return value), queued behind pending work otherwise.
func (dl *delayLine) dispatch(delay time.Duration, run func()) (inline bool) {
	dl.mu.Lock()
	if delay <= 0 && !dl.running && len(dl.queue) == 0 {
		dl.mu.Unlock()
		run()
		return true
	}
	dl.queue = append(dl.queue, delayedItem{due: dl.clk.Now().Add(delay), run: run})
	if !dl.running {
		dl.running = true
		supervise.Spawn("faultinject-delayline", dl.drain)
	}
	dl.mu.Unlock()
	return false
}

func (dl *delayLine) drain() {
	for {
		dl.mu.Lock()
		if len(dl.queue) == 0 {
			dl.running = false
			dl.mu.Unlock()
			return
		}
		item := dl.queue[0]
		dl.queue = dl.queue[1:]
		dl.mu.Unlock()
		if d := item.due.Sub(dl.clk.Now()); d > 0 {
			dl.clk.Sleep(d)
		}
		item.run()
	}
}

// apply runs the verdict against a delivery thunk, preserving per-target
// FIFO order through dl.
func (in *Injector) apply(dl *delayLine, deliver func()) {
	v := in.decide()
	if v.drop {
		return
	}
	n := 1
	if v.dup {
		n = 2
	}
	dl.dispatch(v.delay, func() {
		for i := 0; i < n; i++ {
			deliver()
		}
		in.passed.Add(float64(n))
	})
}

// faultDeputy wraps a Deputy.
type faultDeputy struct {
	in   *Injector
	line delayLine
	next agent.Deputy
}

// Deliver implements agent.Deputy. Drops return nil — a lossy radio, not
// an error the sender could observe.
func (d *faultDeputy) Deliver(env agent.Envelope) error {
	d.in.apply(&d.line, func() { _ = d.next.Deliver(env) })
	return nil
}

// WrapDeputy decorates a deputy with this injector's faults; pass it as
// the wrap argument of Platform.Register.
func (in *Injector) WrapDeputy(next agent.Deputy) agent.Deputy {
	return &faultDeputy{in: in, next: next, line: delayLine{clk: in.clk}}
}

// decidePanic rolls the per-handler crash dice for one envelope.
func (in *Injector) decidePanic() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.handleCount++
	boom := false
	if !in.crashUntil.IsZero() && in.clk.Now().Before(in.crashUntil) {
		boom = true
	}
	if in.cfg.PanicEveryN > 0 && in.handleCount%uint64(in.cfg.PanicEveryN) == 0 {
		boom = true
	}
	if in.cfg.PanicProb > 0 && in.rng.Float64() < in.cfg.PanicProb {
		boom = true
	}
	if boom {
		in.panicked.Inc()
	}
	return boom
}

// faultHandler wraps a Handler with injected crashes.
type faultHandler struct {
	in   *Injector
	next agent.Handler
}

func (h *faultHandler) Handle(env agent.Envelope, ctx *agent.Context) {
	if h.in.decidePanic() {
		panic(fmt.Sprintf("faultinject: crashed handling seq %d (%s)", env.Seq, env.Ontology))
	}
	h.next.Handle(env, ctx)
}

// Checkpoint forwards to the wrapped handler when it checkpoints, so
// injected crashes exercise the real restore path.
func (h *faultHandler) Checkpoint() any {
	if cp, ok := h.next.(agent.Checkpointer); ok {
		return cp.Checkpoint()
	}
	return nil
}

// Restore forwards to the wrapped handler when it checkpoints.
func (h *faultHandler) Restore(snapshot any) {
	if cp, ok := h.next.(agent.Checkpointer); ok {
		cp.Restore(snapshot)
	}
}

// WrapHandler decorates a handler with this injector's crash faults
// (PanicProb, PanicEveryN, CrashFor). The panic escapes into the agent's
// run loop, where supervision — if enabled — recovers and restarts the
// agent. The wrapper forwards Checkpoint/Restore, so a checkpointing
// handler stays checkpointable when wrapped.
func (in *Injector) WrapHandler(next agent.Handler) agent.Handler {
	return &faultHandler{in: in, next: next}
}

// WrapRoute decorates a RouteFunc: faulted envelopes are still reported
// as accepted (true), mimicking a link that took the packet and lost it.
// Each wrapped route owns a delay line, so envelopes on that route keep
// their send order even under injected latency; a synchronous delivery
// still reports the underlying route's verdict.
func (in *Injector) WrapRoute(next agent.RouteFunc) agent.RouteFunc {
	dl := &delayLine{clk: in.clk}
	return func(env agent.Envelope) bool {
		v := in.decide()
		if v.drop {
			return true
		}
		n := 1
		if v.dup {
			n = 2
		}
		accepted := true
		inline := dl.dispatch(v.delay, func() {
			for i := 0; i < n; i++ {
				accepted = next(env) && accepted
			}
			in.passed.Add(float64(n))
		})
		if inline {
			return accepted
		}
		return true
	}
}
