// Package supervise is the self-healing layer of the runtime: Erlang-style
// supervision for the platform's goroutines. The paper's pervasive grid
// assumes devices and agents fail constantly — "the firefighter's PDA ...
// may be disconnected or destroyed" — so a panicking agent must cost the
// grid one conversation turn, not the whole process.
//
// Two levels of protection are offered:
//
//   - Spawn runs a one-shot goroutine behind a panic fence. A transport
//     pump that dies takes its own Proc down, never the process.
//   - Supervisor restarts children one-for-one with exponential backoff
//     and a max-restart budget inside a sliding window; exhausting the
//     budget escalates to OnGiveUp instead of crash-looping forever.
//
// The package also hosts the per-route circuit breakers (breaker.go) that
// turn delivery failures and telemetry health states into shed decisions.
package supervise

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"pervasivegrid/internal/obs"
)

// Policy shapes how a Supervisor treats a crashing child.
type Policy struct {
	// Restart re-runs a child after a panic. False means one strike:
	// the first panic escalates straight to OnGiveUp (the unsupervised
	// baseline behaviour, minus the process exit).
	Restart bool
	// MaxRestarts bounds restarts inside Window before the supervisor
	// gives up on the child (default 8).
	MaxRestarts int
	// Window is the sliding restart-intensity window (default 10s). A
	// child that stays up long enough for its crashes to age out of the
	// window earns its budget back.
	Window time.Duration
	// BaseDelay is the backoff before the first restart (default 10ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 1s).
	MaxDelay time.Duration
	// Clock is the time source for backoff and the restart window. Nil
	// means the wall clock; tests inject obs.FakeClock.
	Clock obs.Clock
}

// DefaultPolicy returns the stock one-for-one restart policy.
func DefaultPolicy() Policy {
	return Policy{
		Restart:     true,
		MaxRestarts: 8,
		Window:      10 * time.Second,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    time.Second,
	}
}

// withDefaults fills zero fields (Restart is taken as configured: a
// zero-value Policy is deliberately a no-restart policy).
func (p Policy) withDefaults() Policy {
	def := DefaultPolicy()
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = def.MaxRestarts
	}
	if p.Window <= 0 {
		p.Window = def.Window
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = def.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = def.MaxDelay
	}
	return p
}

func (p Policy) clock() obs.Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return obs.Real
}

// PanicError is the recovered value of a crashed child, with the stack
// captured at the recovery point.
type PanicError struct {
	Child string
	Value any
	Stack []byte
}

// Error implements error. The stack is kept out of the message (it is
// available via Stack) so wrapped errors stay log-line sized.
func (e *PanicError) Error() string {
	return fmt.Sprintf("supervise: child %q panicked: %v", e.Child, e.Value)
}

// Proc is a handle on a supervised goroutine (one-shot or restarting).
type Proc struct {
	name string
	stop chan struct{}
	done chan struct{}

	stopOnce sync.Once

	mu       sync.Mutex
	restarts int
	lastErr  error
	alive    bool
}

// Name returns the child name the Proc was spawned under.
func (pr *Proc) Name() string { return pr.name }

// Stop signals the child to stop and waits for it to exit. For one-shot
// Spawn procs whose function does not watch a stop signal, Stop simply
// waits for the function to return.
func (pr *Proc) Stop() {
	pr.stopOnce.Do(func() { close(pr.stop) })
	<-pr.done
}

// Stopping exposes the stop signal so delivery paths (e.g. a blocking
// mailbox policy) can abort when the owning agent is going away.
func (pr *Proc) Stopping() <-chan struct{} { return pr.stop }

// Done is closed once the child has exited for good (normal return,
// stop, or give-up).
func (pr *Proc) Done() <-chan struct{} { return pr.done }

// Restarts reports how many times the child has been restarted.
func (pr *Proc) Restarts() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.restarts
}

// Alive reports whether the child is currently running (or between
// restarts).
func (pr *Proc) Alive() bool {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.alive
}

// Err returns the most recent recovered panic (a *PanicError), or nil if
// the child has never crashed.
func (pr *Proc) Err() error {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.lastErr
}

func newProc(name string) *Proc {
	return &Proc{
		name:  name,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		alive: true,
	}
}

func (pr *Proc) setAlive(v bool) {
	pr.mu.Lock()
	pr.alive = v
	pr.mu.Unlock()
}

func (pr *Proc) noteCrash(err error) {
	pr.mu.Lock()
	pr.lastErr = err
	pr.mu.Unlock()
}

func (pr *Proc) noteRestart() {
	pr.mu.Lock()
	pr.restarts++
	pr.mu.Unlock()
}

func (pr *Proc) noteGiveUp() {
	pr.mu.Lock()
	pr.alive = false
	pr.mu.Unlock()
}

// Spawn runs fn on its own goroutine behind a panic fence and returns a
// handle. The goroutine is one-shot: a panic is recovered and recorded on
// the Proc, not propagated and not restarted — the fence is for pumps
// (transport read loops, reporters) that have their own reconnect logic
// and must never take the process down. Use a Supervisor when the child
// should be restarted.
func Spawn(name string, fn func()) *Proc {
	proc := newProc(name)
	go func() {
		defer close(proc.done)
		defer proc.setAlive(false)
		if err := runSafe(name, fn); err != nil {
			proc.noteCrash(err)
		}
	}()
	return proc
}

// runSafe invokes fn, converting a panic into a *PanicError.
func runSafe(name string, fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Child: name, Value: r, Stack: debug.Stack()}
		}
	}()
	fn()
	return nil
}

// Exit describes a child the supervisor has given up on.
type Exit struct {
	// Name is the child name.
	Name string
	// Err is the final recovered panic.
	Err error
	// Restarts is how many restarts were burned before escalation.
	Restarts int
}

// Supervisor restarts crashing children one-for-one. Children are run
// functions taking a stop signal; a normal return is a clean exit (no
// restart), a panic is a crash handled per the Policy.
type Supervisor struct {
	name   string
	policy Policy

	mu       sync.Mutex
	children map[string]*childCounts // by child name; Stats sums them
	metrics  *obs.Registry

	onRestart func(name string, err error, restarts int)
	onGiveUp  func(exit Exit)
}

// childCounts is one child name's supervision record. Each count is one
// counter, published by AttachMetrics as supervise_<name>_total{child}.
type childCounts struct {
	panics, restarts, giveups obs.Counter
}

// publish puts one child's counters in reg.
func (c *childCounts) publish(reg *obs.Registry, child string) {
	reg.Publish(&c.panics, "supervise_panics_total", "child", child)
	reg.Publish(&c.restarts, "supervise_restarts_total", "child", child)
	reg.Publish(&c.giveups, "supervise_giveups_total", "child", child)
}

// NewSupervisor builds a supervisor with the given policy (zero fields
// filled with defaults; see Policy).
func NewSupervisor(name string, policy Policy) *Supervisor {
	return &Supervisor{
		name:     name,
		policy:   policy.withDefaults(),
		children: map[string]*childCounts{},
	}
}

// counts returns child's record, creating (and publishing) it at the
// child's first crash. A respawned name keeps its record.
func (s *Supervisor) counts(child string) *childCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.children[child]
	if c == nil {
		c = &childCounts{}
		s.children[child] = c
		c.publish(s.metrics, child)
	}
	return c
}

// OnRestart installs a hook called after each restart decision, before
// the backoff sleep. Install hooks before spawning children.
func (s *Supervisor) OnRestart(fn func(name string, err error, restarts int)) {
	s.mu.Lock()
	s.onRestart = fn
	s.mu.Unlock()
}

// OnGiveUp installs the escalation hook: called once when a child
// exhausts its restart budget (or crashes under a no-restart policy).
// This is where a daemon decides whether a dead child is fatal.
func (s *Supervisor) OnGiveUp(fn func(exit Exit)) {
	s.mu.Lock()
	s.onGiveUp = fn
	s.mu.Unlock()
}

// AttachMetrics publishes the supervision counts in reg:
// supervise_panics_total, supervise_restarts_total and
// supervise_giveups_total, each labelled by child.
func (s *Supervisor) AttachMetrics(reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
	for child, c := range s.children {
		c.publish(reg, child)
	}
}

// Stats is a point-in-time snapshot of supervision activity.
type Stats struct {
	// Panics counts recovered child panics.
	Panics uint64
	// Restarts counts restart decisions taken.
	Restarts uint64
	// GiveUps counts children escalated after budget exhaustion.
	GiveUps uint64
}

// Stats sums the supervisor's per-child counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, c := range s.children {
		st.Panics += uint64(c.panics.Value())
		st.Restarts += uint64(c.restarts.Value())
		st.GiveUps += uint64(c.giveups.Value())
	}
	return st
}

// Spawn starts a supervised child. run receives the stop signal and
// should return when it fires; a panic triggers the restart policy.
// Callers keep the returned *Proc: it is the child's only handle.
func (s *Supervisor) Spawn(name string, run func(stop <-chan struct{})) *Proc {
	proc := newProc(name)
	go s.loop(proc, run)
	return proc
}

// loop is the per-child supervision loop: run, recover, decide, back
// off, restart — until a clean exit, a stop, or budget exhaustion.
func (s *Supervisor) loop(proc *Proc, run func(stop <-chan struct{})) {
	defer close(proc.done)
	clk := s.policy.clock()
	delay := s.policy.BaseDelay
	var crashes []time.Time
	var counts *childCounts // from the first crash
	for {
		err := runSafe(proc.name, func() { run(proc.stop) })
		if err == nil {
			// Clean exit: the child returned on its own terms.
			proc.setAlive(false)
			return
		}
		proc.noteCrash(err)
		if counts == nil {
			counts = s.counts(proc.name)
		}
		counts.panics.Inc()
		select {
		case <-proc.stop:
			proc.setAlive(false)
			return
		default:
		}
		now := clk.Now()
		crashes = append(crashes, now)
		kept := crashes[:0]
		for _, at := range crashes {
			if now.Sub(at) <= s.policy.Window {
				kept = append(kept, at)
			}
		}
		crashes = kept
		if len(crashes) == 1 {
			// Previous crashes aged out of the window: the child earned
			// its backoff back too.
			delay = s.policy.BaseDelay
		}
		if !s.policy.Restart || len(crashes) > s.policy.MaxRestarts {
			proc.noteGiveUp()
			counts.giveups.Inc()
			s.escalate(Exit{Name: proc.name, Err: err, Restarts: proc.Restarts()})
			return
		}
		proc.noteRestart()
		counts.restarts.Inc()
		s.noteRestart(proc.name, err, proc.Restarts())
		select {
		case <-proc.stop:
			proc.setAlive(false)
			return
		case <-clk.After(delay):
		}
		grown := 2 * delay // the backoff doubles per consecutive restart
		if grown > s.policy.MaxDelay {
			grown = s.policy.MaxDelay
		}
		delay = grown
	}
}

func (s *Supervisor) noteRestart(child string, err error, restarts int) {
	s.mu.Lock()
	hook := s.onRestart
	s.mu.Unlock()
	if hook != nil {
		hook(child, err, restarts)
	}
}

// Periodic runs fn every interval on a supervised goroutine until the
// returned Proc is stopped. Each tick is panic-fenced like Spawn: a
// panicking fn is recorded on the Proc and the loop keeps ticking —
// built for maintenance pumps (WAL interval fsync, cache sweeps) where
// one bad tick must not end the schedule. clk nil means the wall clock.
func Periodic(name string, clk obs.Clock, interval time.Duration, fn func()) *Proc {
	if clk == nil {
		clk = obs.Real
	}
	proc := newProc(name)
	go func() {
		defer close(proc.done)
		defer proc.setAlive(false)
		for {
			select {
			case <-proc.stop:
				return
			case <-clk.After(interval):
			}
			if err := runSafe(name, fn); err != nil {
				proc.noteCrash(err)
			}
		}
	}()
	return proc
}

func (s *Supervisor) escalate(exit Exit) {
	s.mu.Lock()
	hook := s.onGiveUp
	s.mu.Unlock()
	if hook != nil {
		hook(exit)
	}
}
