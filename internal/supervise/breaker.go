package supervise

import (
	"sort"
	"sync"
	"time"

	"pervasivegrid/internal/obs"
)

// BreakerState is a circuit breaker's position.
type BreakerState int32

// Breaker states: Closed passes traffic, Open sheds it, HalfOpen lets
// probe traffic through to test recovery.
const (
	BreakerClosed BreakerState = iota
	BreakerHalfOpen
	BreakerOpen
)

// String renders the state for /fleet.json and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerPolicy shapes the closed→open→half-open state machine.
type BreakerPolicy struct {
	// FailureThreshold is how many consecutive failures open the
	// breaker (default 5).
	FailureThreshold int
	// OpenFor is the cool-down before an open breaker lets a probe
	// through (default 2s).
	OpenFor time.Duration
	// HalfOpenSuccesses is how many consecutive probe successes close
	// a half-open breaker (default 2).
	HalfOpenSuccesses int
	// Clock is the cool-down time source (nil = wall clock).
	Clock obs.Clock
}

// DefaultBreakerPolicy returns the stock breaker policy.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{FailureThreshold: 5, OpenFor: 2 * time.Second, HalfOpenSuccesses: 2}
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	def := DefaultBreakerPolicy()
	if p.FailureThreshold <= 0 {
		p.FailureThreshold = def.FailureThreshold
	}
	if p.OpenFor <= 0 {
		p.OpenFor = def.OpenFor
	}
	if p.HalfOpenSuccesses <= 0 {
		p.HalfOpenSuccesses = def.HalfOpenSuccesses
	}
	return p
}

func (p BreakerPolicy) clock() obs.Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return obs.Real
}

// Breaker is one target's circuit breaker. Closed counts consecutive
// failures; at the threshold it opens and sheds sends for OpenFor; then
// it half-opens, letting traffic probe the target — enough consecutive
// successes close it, any failure re-opens it. ForceOpen lets the
// telemetry plane trip a breaker from health state (suspect/down) before
// local sends ever fail.
type Breaker struct {
	name   string
	policy BreakerPolicy

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive successes while half-open
	openedAt  time.Time
	counts    BreakerCounts

	onChange func(name string, from, to BreakerState)
}

// BreakerCounts is cumulative breaker activity (transition counts are
// the "breaker flips" EXPERIMENTS.md records).
type BreakerCounts struct {
	// Failures / Successes count reported outcomes.
	Failures  uint64
	Successes uint64
	// Opened / HalfOpened / Closed count transitions into each state.
	Opened     uint64
	HalfOpened uint64
	Closed     uint64
	// ForcedOpen counts health-driven trips (a subset of Opened).
	ForcedOpen uint64
}

// NewBreaker builds a breaker for one named target.
func NewBreaker(name string, policy BreakerPolicy) *Breaker {
	return &Breaker{name: name, policy: policy.withDefaults()}
}

// Name returns the target this breaker guards.
func (b *Breaker) Name() string { return b.name }

// transitionLocked moves the state machine; callers hold b.mu.
func (b *Breaker) transitionLocked(to BreakerState) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	switch to {
	case BreakerOpen:
		b.counts.Opened++
		b.openedAt = b.policy.clock().Now()
	case BreakerHalfOpen:
		b.counts.HalfOpened++
		b.successes = 0
	case BreakerClosed:
		b.counts.Closed++
		b.failures = 0
	}
	if b.onChange != nil {
		b.onChange(b.name, from, to)
	}
}

// Allow reports whether a send to the target should be attempted. An
// open breaker whose cool-down has elapsed half-opens (and allows the
// probe) as a side effect.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.policy.clock().Now().Sub(b.openedAt) >= b.policy.OpenFor {
			b.transitionLocked(BreakerHalfOpen)
			return true
		}
		return false
	default:
		return true
	}
}

// Success records a successful interaction with the target.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts.Successes++
	switch b.state {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.successes++
		if b.successes >= b.policy.HalfOpenSuccesses {
			b.transitionLocked(BreakerClosed)
		}
	case BreakerOpen:
		// A straggling success from before the trip changes nothing.
	}
}

// Failure records a failed interaction with the target.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts.Failures++
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.policy.FailureThreshold {
			b.transitionLocked(BreakerOpen)
		}
	case BreakerHalfOpen:
		// The probe failed: back to shedding for a full cool-down.
		b.transitionLocked(BreakerOpen)
	case BreakerOpen:
	}
}

// ForceOpen trips the breaker regardless of failure counts — the
// health→breaker feedback path (telemetry marked the target suspect or
// down). A no-op when already open, so repeated health syncs do not keep
// resetting the cool-down.
func (b *Breaker) ForceOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		return
	}
	b.counts.ForcedOpen++
	b.transitionLocked(BreakerOpen)
}

// State returns the current position without side effects.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// view builds the serialisable snapshot.
func (b *Breaker) view() BreakerView {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerView{
		Target:     b.name,
		State:      b.state.String(),
		Failures:   b.counts.Failures,
		Successes:  b.counts.Successes,
		Opened:     b.counts.Opened,
		HalfOpened: b.counts.HalfOpened,
		Closed:     b.counts.Closed,
		ForcedOpen: b.counts.ForcedOpen,
	}
}

// BreakerView is one breaker's state as served in /fleet.json.
type BreakerView struct {
	Target     string `json:"target"`
	State      string `json:"state"`
	Failures   uint64 `json:"failures"`
	Successes  uint64 `json:"successes"`
	Opened     uint64 `json:"opened"`
	HalfOpened uint64 `json:"half_opened"`
	Closed     uint64 `json:"closed"`
	ForcedOpen uint64 `json:"forced_open,omitempty"`
}

// DefaultBreakerTargets bounds how many distinct targets a BreakerSet
// tracks; beyond it new failures are not tracked (Allow stays true), so
// ephemeral caller IDs cannot grow the map without bound.
const DefaultBreakerTargets = 1024

// BreakerSet keys breakers by target (an agent ID, a service name, or a
// fleet node). Breakers are created lazily on the first Failure or
// ForceOpen — a target that never fails costs nothing, and Allow/Success
// on an untracked target are free no-ops.
type BreakerSet struct {
	policy BreakerPolicy

	mu       sync.Mutex
	breakers map[string]*Breaker
	metrics  *obs.Registry

	// Transition subscribers live under their own mutex: notifications
	// fire with the transitioning breaker's mutex held, and s.mu is held
	// while breaker mutexes are acquired (instrumentLocked), so routing
	// them through s.mu would close a lock cycle. subMu never acquires
	// another lock.
	subMu   sync.Mutex
	subs    map[int]func(target string, from, to BreakerState)
	nextSub int
}

// NewBreakerSet builds an empty set with the given policy (zero fields
// defaulted).
func NewBreakerSet(policy BreakerPolicy) *BreakerSet {
	return &BreakerSet{policy: policy.withDefaults(), breakers: map[string]*Breaker{}}
}

// AttachMetrics exports breaker state into reg: gauge
// breaker_state{target} (0 closed, 1 half-open, 2 open) and counter
// breaker_transitions_total{target,to}.
func (s *BreakerSet) AttachMetrics(reg *obs.Registry) {
	s.mu.Lock()
	s.metrics = reg
	for _, b := range s.breakers {
		s.instrumentLocked(b)
	}
	s.mu.Unlock()
}

// instrumentLocked wires the change hook; callers hold s.mu.
func (s *BreakerSet) instrumentLocked(b *Breaker) {
	reg := s.metrics
	if reg != nil {
		reg.Gauge("breaker_state", "target", b.name).Set(float64(b.State()))
	}
	b.mu.Lock()
	b.onChange = func(name string, from, to BreakerState) {
		if reg != nil {
			reg.Gauge("breaker_state", "target", name).Set(float64(to))
			reg.Counter("breaker_transitions_total", "target", name, "to", to.String()).Inc()
		}
		s.notify(name, from, to)
	}
	b.mu.Unlock()
}

// OnTransition subscribes fn to every state change of every breaker in
// the set (including ones created later) and returns a cancel func.
// Subscribers run synchronously with the transitioning breaker's
// internal mutex held: they MUST NOT block and MUST NOT call back into
// the set or any breaker — hand the signal off with a non-blocking
// channel send or an atomic flag and return.
func (s *BreakerSet) OnTransition(fn func(target string, from, to BreakerState)) func() {
	s.subMu.Lock()
	if s.subs == nil {
		s.subs = map[int]func(string, BreakerState, BreakerState){}
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	s.subMu.Unlock()
	return func() {
		s.subMu.Lock()
		delete(s.subs, id)
		s.subMu.Unlock()
	}
}

// notify fans a transition out to subscribers. Called from breaker
// onChange hooks (breaker mutex held), so it only touches subMu.
func (s *BreakerSet) notify(target string, from, to BreakerState) {
	s.subMu.Lock()
	if len(s.subs) == 0 {
		s.subMu.Unlock()
		return
	}
	fns := make([]func(string, BreakerState, BreakerState), 0, len(s.subs))
	for _, fn := range s.subs {
		fns = append(fns, fn)
	}
	s.subMu.Unlock()
	for _, fn := range fns {
		fn(target, from, to)
	}
}

// get returns the breaker for target, creating it when create is set and
// the set has room.
func (s *BreakerSet) get(target string, create bool) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[target]
	if ok || !create {
		return b
	}
	if len(s.breakers) >= DefaultBreakerTargets {
		return nil
	}
	b = NewBreaker(target, s.policy)
	s.breakers[target] = b
	s.instrumentLocked(b)
	return b
}

// Allow reports whether a send to target should be attempted (true for
// untracked targets).
func (s *BreakerSet) Allow(target string) bool {
	if b := s.get(target, false); b != nil {
		return b.Allow()
	}
	return true
}

// Success records a successful interaction (no-op for untracked
// targets — only failures create breakers).
func (s *BreakerSet) Success(target string) {
	if b := s.get(target, false); b != nil {
		b.Success()
	}
}

// Failure records a failed interaction, creating the target's breaker
// on first failure.
func (s *BreakerSet) Failure(target string) {
	if b := s.get(target, true); b != nil {
		b.Failure()
	}
}

// ForceOpen trips the target's breaker (health-driven), creating it if
// needed.
func (s *BreakerSet) ForceOpen(target string) {
	if b := s.get(target, true); b != nil {
		b.ForceOpen()
	}
}

// State returns the target's position (BreakerClosed for untracked).
func (s *BreakerSet) State(target string) BreakerState {
	if b := s.get(target, false); b != nil {
		return b.State()
	}
	return BreakerClosed
}

// Snapshot lists every tracked breaker, sorted by target, for
// /fleet.json and experiment tables.
func (s *BreakerSet) Snapshot() []BreakerView {
	s.mu.Lock()
	bs := make([]*Breaker, 0, len(s.breakers))
	for _, b := range s.breakers {
		bs = append(bs, b)
	}
	s.mu.Unlock()
	out := make([]BreakerView, 0, len(bs))
	for _, b := range bs {
		out = append(out, b.view())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}

// Transitions sums open/half-open/close transitions across the set —
// the headline "breaker flips" number.
func (s *BreakerSet) Transitions() uint64 {
	var n uint64
	for _, v := range s.Snapshot() {
		n += v.Opened + v.HalfOpened + v.Closed
	}
	return n
}
