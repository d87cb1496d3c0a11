package agent

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pervasivegrid/internal/obs"
)

// Retry layer: the paper's runtime must "handle the transport level
// problems caused by low bandwidth, high latency, frequent disconnections
// and network topology changes". Envelope delivery is at-most-once per
// attempt, so conversations that must survive loss re-send with
// exponential backoff and correlate the reply against every attempt.

// RetryPolicy shapes Call / CallRetry / SendRetry attempts and backoff.
type RetryPolicy struct {
	// MaxAttempts bounds total sends (first try included; default 4).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 50ms);
	// it doubles per attempt.
	BaseDelay time.Duration
	// MaxDelay caps the grown backoff (default 2s).
	MaxDelay time.Duration
	// Jitter randomises each backoff by ±Jitter fraction (default 0.2).
	Jitter float64
	// AttemptTimeout bounds the wait for a reply per attempt before
	// re-sending (CallRetry only; default: overall timeout divided by
	// MaxAttempts).
	AttemptTimeout time.Duration
	// Seed makes the jitter sequence deterministic when nonzero —
	// chaos tests pin it so backoff schedules are reproducible.
	Seed int64
	// Clock is the time source for deadlines and backoff sleeps. Nil
	// means the wall clock; tests inject obs.FakeClock so multi-second
	// backoff schedules run in microseconds.
	Clock obs.Clock
}

// clock returns the policy's time source (wall clock by default).
func (rp RetryPolicy) clock() obs.Clock {
	if rp.Clock != nil {
		return rp.Clock
	}
	return obs.Real
}

// DefaultRetryPolicy returns the stock policy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
	}
}

// withDefaults fills zero fields.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = def.MaxAttempts
	}
	if rp.BaseDelay <= 0 {
		rp.BaseDelay = def.BaseDelay
	}
	if rp.MaxDelay <= 0 {
		rp.MaxDelay = def.MaxDelay
	}
	if rp.Jitter < 0 || rp.Jitter > 1 {
		rp.Jitter = def.Jitter
	}
	return rp
}

// backoffSource yields the jittered backoff before each retry. It belongs
// to one conversation, so it needs no lock.
type backoffSource struct {
	policy RetryPolicy
	delay  time.Duration
	rng    *rand.Rand // nil = global rand
}

// next returns the current jittered delay and doubles the base delay.
func (b *backoffSource) next() time.Duration {
	d := b.delay
	b.delay = min(2*b.delay, b.policy.MaxDelay)
	if b.policy.Jitter > 0 {
		if b.rng == nil && b.policy.Seed != 0 {
			b.rng = rand.New(rand.NewSource(b.policy.Seed))
		}
		var u float64
		if b.rng != nil {
			u = b.rng.Float64()
		} else {
			u = rand.Float64()
		}
		// Scale into [1-Jitter, 1+Jitter].
		d = time.Duration(float64(d) * (1 - b.policy.Jitter + 2*b.policy.Jitter*u))
	}
	return max(d, 0)
}

// finishEvent stamps outcome/err/breaker on a conversation's wide event
// and emits it. The event is emitted whatever the head-sampling verdict,
// so a failed, unsampled conversation still leaves its record.
func (p *Platform) finishEvent(ev *obs.Event, callErr error, clk obs.Clock) {
	if p.Events == nil {
		return
	}
	outcome := obs.OutcomeOK
	switch {
	case callErr == nil:
	case errors.Is(callErr, ErrCircuitOpen):
		outcome = obs.OutcomeBreakerOpen
	case errors.Is(callErr, ErrCallTimeout):
		outcome = obs.OutcomeTimeout
	default:
		outcome = obs.OutcomeError
	}
	if callErr != nil {
		ev.Err = callErr.Error()
	}
	if p.Breakers != nil {
		ev.Breaker = p.Breakers.State(ev.To).String()
	}
	ev.Finish(outcome, clk.Now())
	p.Events.Emit(*ev)
}

// SendRetry sends an envelope, re-attempting transient failures (mailbox
// full, no route — e.g. a link mid-reconnect, an open circuit) with backoff
// until the policy or deadline is exhausted. Permanent errors (closed
// platform, TTL exhausted) fail immediately. The envelope keeps one
// sequence number across attempts, so a duplicate arrival is detectable by
// the receiver.
func SendRetry(p *Platform, env Envelope, timeout time.Duration, policy RetryPolicy) error {
	if env.Seq == 0 {
		env.Seq = p.seq.next()
	}
	_, err := p.converse(env, nil, timeout, policy)
	return err
}

// CallRetry performs a request/reply conversation that survives envelope
// loss: each attempt re-sends the request with a fresh sequence number,
// waits up to the attempt timeout, and backs off (exponential + jitter)
// before the next attempt, never exceeding the overall timeout. The reply
// is correlated against *every* attempt's sequence number, so a slow reply
// to attempt 1 still completes the conversation during attempt 3 — which
// also means the request may be handled more than once: use it for
// idempotent conversations (queries, discovery, advertisements with
// leases).
func CallRetry(p *Platform, to ID, performative, ontology string, body any, timeout time.Duration, policy RetryPolicy) (Envelope, error) {
	// Room for one reply and one stray per attempt, up to eight.
	in, err := p.openInbox(min(2*policy.withDefaults().MaxAttempts, 8))
	if err != nil {
		return Envelope{}, err
	}
	defer in.close()
	env, err := NewEnvelope(in.id, to, performative, ontology, body)
	if err != nil {
		return Envelope{}, err
	}
	return p.converse(env, in, timeout, policy)
}

// converse is the one attempt loop every conversation runs through: breaker
// gate → send → wait for a correlated reply → backoff, with one wide event
// at the end. Without an inbox the exchange is one-way and an accepted send
// completes it; with one, every attempt goes out under a fresh sequence
// number and a reply to any of them completes it. One trace covers every
// attempt, so the dumped timeline shows the loss, the backoff, and the
// attempt that won.
func (p *Platform) converse(env Envelope, in *inbox, timeout time.Duration, policy RetryPolicy) (Envelope, error) {
	rp := policy.withDefaults()
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	attemptTimeout := rp.AttemptTimeout
	if attemptTimeout <= 0 {
		attemptTimeout = max(timeout/time.Duration(rp.MaxAttempts), time.Millisecond)
	}
	events := p.Events != nil
	if (p.Tracer != nil || events) && env.TraceID == 0 {
		env.TraceID = obs.NewTraceID()
	}
	clk := rp.clock()
	start := clk.Now()
	deadline := start.Add(timeout)
	ev := obs.NewEvent(p.Name, env.TraceID, string(env.From), string(env.To), env.Ontology, start)
	finish := func(r Envelope, err error) (Envelope, error) {
		ev.Hops = r.Hops
		p.finishEvent(&ev, err, clk)
		return r, err
	}
	backoff := backoffSource{policy: rp, delay: rp.BaseDelay}
	// Seqs of every attempt a route accepted; a reply to any of them wins.
	sent := make([]uint64, 0, 4)
	var lastErr error
	attempt := 1
	for ; ; attempt++ {
		if in != nil {
			env.Seq = p.seq.next()
		}
		if attempt > 1 {
			p.noteRetry()
			p.trace(obs.SpanRetry, env, fmt.Sprintf("attempt %d", attempt))
			ev.Retries++
		}
		var attemptStart time.Time
		if events {
			attemptStart = clk.Now()
		}
		var err error
		if p.breakerAllow(env.To) {
			err = p.Send(env)
		} else {
			// Open circuit: shed the attempt instead of feeding a
			// known-bad target. The attempt timer and backoff still run
			// — the breaker needs its cool-down to elapse before
			// half-opening, and a reply to an earlier attempt may land.
			p.noteBreakerReject()
			ev.Sheds++
			err = fmt.Errorf("%w: %q", ErrCircuitOpen, env.To)
		}
		switch {
		case err == nil:
			sent = append(sent, env.Seq)
		case errors.Is(err, ErrClosed) || errors.Is(err, ErrTTLExpired):
			return finish(Envelope{}, err) // permanent: no later attempt fares better
		default:
			// Transient (mailbox full, no route yet, open circuit): back
			// off and re-attempt like a lost packet.
			lastErr = err
		}
		var reply Envelope
		done := err == nil && in == nil
		// With nothing in flight after the final attempt no reply can
		// come: return at once instead of sleeping out the timeout.
		if in != nil && (len(sent) > 0 || attempt < rp.MaxAttempts) {
			reply, done = in.await(sent, clk.After(min(attemptTimeout, deadline.Sub(clk.Now()))))
		}
		if events {
			ev.AddPhase(fmt.Sprintf("attempt-%d", attempt), clk.Now().Sub(attemptStart))
		}
		if done {
			return finish(reply, nil)
		}
		if attempt == rp.MaxAttempts || !clk.Now().Before(deadline) {
			break
		}
		pause := min(backoff.next(), deadline.Sub(clk.Now()))
		if in == nil {
			clk.Sleep(pause)
		} else if reply, ok := in.await(sent, clk.After(pause)); ok {
			return finish(reply, nil) // a slow reply landed during the backoff
		}
	}
	if lastErr == nil {
		lastErr = ErrCallTimeout
	}
	return finish(Envelope{}, fmt.Errorf("%w: %s -> %s after %d attempts in %v",
		lastErr, env.Performative, env.To, attempt, timeout))
}
