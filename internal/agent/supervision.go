package agent

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"pervasivegrid/internal/supervise"
)

// Self-healing glue between the platform and internal/supervise: agent
// run loops execute as supervised children (panic → restart with
// backoff, budget, escalation), deputy delivery runs behind a panic
// fence, and an optional BreakerSet turns repeated delivery failures
// into fail-fast shedding for the retry layer.

// ErrCircuitOpen reports a send suppressed because the destination's
// circuit breaker is open — the platform is shedding load it already
// knows would fail.
var ErrCircuitOpen = errors.New("agent: circuit open")

// ErrDeliverPanic reports a deputy (or route) that panicked during
// delivery. The panic is recovered — one bad decorator must not take
// the process down — and the envelope is dead-lettered.
var ErrDeliverPanic = errors.New("agent: delivery panicked")

// Checkpointer is the optional state hook for supervised handlers: a
// handler that implements it has Checkpoint called after every
// successfully handled envelope, and Restore called with the last
// checkpoint when the agent restarts after a panic — so a restarted
// agent resumes its conversations instead of starting amnesiac. The
// envelope being handled when the panic hit is consumed, not redelivered
// (a poison pill must not re-kill the fresh incarnation).
type Checkpointer interface {
	// Checkpoint returns an opaque snapshot of the handler's state.
	Checkpoint() any
	// Restore reinstalls a snapshot taken by Checkpoint.
	Restore(snapshot any)
}

// RecoveredSnapshot is the form a checkpoint takes when it has crossed
// a process boundary: the durable store journals snapshots as JSON, so
// on recovery it seeds agents with the raw bytes rather than the live
// value Checkpoint returned. A Checkpointer that wants to survive
// kill -9 (not just in-process restarts) must accept both shapes in
// Restore:
//
//	func (a *counter) Restore(snap any) {
//		switch s := snap.(type) {
//		case RecoveredSnapshot:
//			_ = json.Unmarshal(s, &a.state) // from disk
//		case state:
//			a.state = s // live, same process
//		}
//	}
type RecoveredSnapshot []byte

// SeedCheckpoint installs a recovered checkpoint for an agent. Called
// before Register, the snapshot waits and becomes the agent's initial
// Restore argument when its run loop starts; called on a live agent, it
// replaces the stored checkpoint used at the next supervised restart.
func (p *Platform) SeedCheckpoint(id ID, snapshot any) {
	p.mu.Lock()
	reg, ok := p.agents[id]
	if !ok {
		p.seeds[id] = snapshot
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	reg.ckptMu.Lock()
	reg.ckpt, reg.hasCkpt = snapshot, true
	reg.ckptMu.Unlock()
}

// supervisorLocked lazily builds the platform's agent supervisor;
// callers hold p.mu. The policy is read from p.Supervision once, at
// first registration.
func (p *Platform) supervisorLocked() *supervise.Supervisor {
	if p.sup == nil {
		pol := supervise.DefaultPolicy()
		if p.Supervision != nil {
			pol = *p.Supervision
		}
		if pol.Clock == nil {
			pol.Clock = p.Clock
		}
		p.sup = supervise.NewSupervisor(p.Name, pol)
		p.sup.AttachMetrics(p.metrics)
		p.sup.OnRestart(func(name string, err error, restarts int) {
			id := ID(strings.TrimPrefix(name, "agent:"))
			if fn := p.OnAgentRestart; fn != nil {
				fn(id, err)
			}
		})
		p.sup.OnGiveUp(func(e supervise.Exit) {
			id := ID(strings.TrimPrefix(e.Name, "agent:"))
			if fn := p.OnAgentDown; fn != nil {
				fn(id, e.Err)
			}
		})
	}
	return p.sup
}

// SupervisionStats snapshots the agent supervisor's panic/restart/
// give-up counters (zero if no agent was ever registered).
func (p *Platform) SupervisionStats() supervise.Stats {
	p.mu.RLock()
	sup := p.sup
	p.mu.RUnlock()
	if sup == nil {
		return supervise.Stats{}
	}
	return sup.Stats()
}

// AgentAlive reports whether a hosted agent's run loop is still being
// kept alive by supervision (false after a give-up or for unknown IDs).
func (p *Platform) AgentAlive(id ID) bool {
	p.mu.RLock()
	reg, ok := p.agents[id]
	p.mu.RUnlock()
	if !ok || reg.proc == nil {
		return false
	}
	return reg.proc.Alive()
}

// breakerAllow consults the destination's circuit breaker (true when no
// breaker set is attached).
func (p *Platform) breakerAllow(to ID) bool {
	if p.Breakers == nil {
		return true
	}
	return p.Breakers.Allow(string(to))
}

// breakerSuccess / breakerFailure feed delivery outcomes into the
// breaker set.
func (p *Platform) breakerSuccess(to ID) {
	if p.Breakers != nil {
		p.Breakers.Success(string(to))
	}
}

func (p *Platform) breakerFailure(to ID) {
	if p.Breakers != nil {
		p.Breakers.Failure(string(to))
	}
}

// noteBreakerReject counts a send suppressed by an open breaker.
func (p *Platform) noteBreakerReject() {
	p.metrics.Counter("agent_breaker_rejected_total").Inc()
}

// safeDeliver invokes a deputy chain behind a panic fence.
func (p *Platform) safeDeliver(d Deputy, env Envelope) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrDeliverPanic, r)
		}
	}()
	return d.Deliver(env)
}

// safeRoute invokes a route behind a panic fence; a panicking route
// counts as not having accepted the envelope.
func safeRoute(fn RouteFunc, env Envelope) (accepted, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			accepted, panicked = false, true
		}
	}()
	return fn(env), false
}

// QueuedEnvelopes sums the depth of every agent mailbox (both lanes).
func (p *Platform) QueuedEnvelopes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, reg := range p.agents {
		if reg.box != nil {
			n += int(reg.box.depth.Load())
		}
	}
	return n
}

// Drain blocks until every agent mailbox is empty or the timeout
// elapses, reporting whether the platform drained. Graceful shutdown
// calls this between "stop accepting" and Close so queued work is
// handled rather than dropped.
func (p *Platform) Drain(timeout time.Duration) bool {
	clk := p.clock()
	deadline := clk.Now().Add(timeout)
	for p.QueuedEnvelopes() > 0 {
		if !clk.Now().Before(deadline) {
			return false
		}
		clk.Sleep(2 * time.Millisecond)
	}
	return true
}
