package agent

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Handler is an agent's behaviour: it receives each envelope delivered to
// the agent, together with a platform context for sending replies. Handlers
// for one agent run sequentially on the agent's own goroutine.
type Handler interface {
	Handle(env Envelope, ctx *Context)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(env Envelope, ctx *Context)

// Handle implements Handler.
func (f HandlerFunc) Handle(env Envelope, ctx *Context) { f(env, ctx) }

// Context gives a running agent access to its platform.
type Context struct {
	// Self is the agent's own ID.
	Self ID
	// Platform is the hosting platform.
	Platform *Platform
}

// Send routes an envelope from this agent.
func (c *Context) Send(env Envelope) error {
	env.From = c.Self
	return c.Platform.Send(env)
}

// registration is one reachable ID: its deputy chain and attributes, and —
// for a hosted agent — a mailbox and a run loop. A conversation inbox is a
// registration that is only a deputy: no mailbox, no proc (see openInbox).
// The mailbox is never torn down: a delivery racing a deregistration
// (including a delayed one from a decorating deputy) queues where no run
// loop reads it, or, under Block, is released by the stop.
// The run loop executes as a supervised child (see supervision.go) and
// proc is its handle: stopping it is the termination signal, on which the
// agent goroutine drains what is already queued and exits.
type registration struct {
	deputy Deputy
	attrs  Attributes
	box    *mailbox
	proc   *supervise.Proc
	depth  atomic.Pointer[obs.Gauge] // agent_mailbox_depth{agent}, from the first delivery

	// Checkpoint storage for handlers implementing Checkpointer: the
	// last snapshot taken after a successful Handle, restored when
	// supervision restarts the agent.
	ckptMu  sync.Mutex
	ckpt    any
	hasCkpt bool
}

// RouteID names an installed gateway route so it can be removed when the
// underlying transport goes away (see Link.Close, Gateway.Close).
type RouteID uint64

// routeEntry pairs an installed route with its removal handle, its
// agent_route_delivered_total{route} counter and its span note.
type routeEntry struct {
	id        RouteID
	fn        RouteFunc
	delivered *obs.Counter
	note      string
}

// DropReason classifies why an envelope became undeliverable.
type DropReason string

// Drop reasons recorded in the dead-letter ring.
const (
	// DropMailboxFull: the destination deputy rejected the envelope
	// (agent mailbox full).
	DropMailboxFull DropReason = "mailbox_full"
	// DropNoRoute: no local agent and no gateway route accepted it.
	DropNoRoute DropReason = "no_route"
	// DropLinkDown: a store-and-forward queue (a Link's or a
	// DisconnectionDeputy's) overflowed or was abandoned while its peer was
	// disconnected.
	DropLinkDown DropReason = "link_down"
	// DropTTLExpired: the envelope exceeded the platform hop budget
	// (a routing loop, or a retry storm bouncing between gateways).
	DropTTLExpired DropReason = "ttl_expired"
	// DropShedOldest: overload control evicted this envelope from a full
	// mailbox lane to admit a newer one (MailboxPolicy DropOldest).
	DropShedOldest DropReason = "shed_oldest"
	// DropDeliverPanic: a deputy or route panicked while delivering; the
	// panic was recovered and the envelope abandoned.
	DropDeliverPanic DropReason = "deliver_panic"
)

// DeadLetter is one undeliverable envelope held for post-mortem.
type DeadLetter struct {
	Env    Envelope
	Reason DropReason
}

// DefaultDeadLetterCap bounds the dead-letter ring.
const DefaultDeadLetterCap = 128

// DefaultMaxHops bounds how many platform ingress points an envelope may
// traverse before it is dropped as looping.
const DefaultMaxHops = 16

// DeliveryStats is a point-in-time snapshot of a platform's envelope
// accounting, the paper's "mission control ... evaluating the overall
// performance" view of the messaging layer.
type DeliveryStats struct {
	// Delivered counts envelopes accepted by a deputy or a route.
	Delivered uint64
	// Dropped counts terminally undeliverable envelopes.
	Dropped uint64
	// Retries counts re-attempted sends (CallRetry / SendRetry).
	Retries uint64
	// DeadLettered counts envelopes pushed into the dead-letter ring
	// (equals Dropped; kept separate so the ring can be bounded while
	// the counter is not).
	DeadLettered uint64
	// Shed counts envelopes refused or evicted by mailbox overload
	// control (both rejected-newest and evicted-oldest).
	Shed uint64
	// Reasons breaks Dropped down by drop reason.
	Reasons map[DropReason]uint64
}

// Platform hosts agents and routes envelopes between them. Remote platforms
// are reachable through gateway routes (see transport.go).
type Platform struct {
	Name string

	// Tracer, when set, receives a span for every hop an envelope takes
	// through this platform (send, deliver, route, ingress, retry,
	// drop). Envelopes without a TraceID get one assigned on Send so
	// the whole conversation — including replies and remote hops — can
	// be reassembled into a causal timeline. Nil disables tracing.
	Tracer *obs.Tracer

	// Events, when set, receives one wide event per conversation
	// (Call/CallRetry/SendRetry): route, retries, sheds, breaker state,
	// per-attempt latency, outcome. Envelopes get a
	// TraceID assigned on Send whenever Events or Tracer is set, so an
	// event always points at a stitchable trace. Nil disables events.
	Events *obs.EventLog

	// Clock is the time source for deliver-latency measurement and the
	// retry/reconnect layers. Nil means the wall clock; tests inject
	// obs.FakeClock to run backoff schedules without sleeping.
	Clock obs.Clock

	// Supervision selects the restart policy for agent run loops. Nil
	// means supervise.DefaultPolicy() (restart on panic, with backoff
	// and a budget); a policy with Restart false makes the first panic
	// final. Set before registering agents.
	Supervision *supervise.Policy

	// OnAgentDown is the escalation hook: called (from the supervisor's
	// goroutine) when supervision gives up on an agent. The registration
	// stays installed — the hook decides whether to Deregister, replace,
	// or exit. Set before registering agents.
	OnAgentDown func(id ID, err error)

	// OnCheckpoint, when set, observes every checkpoint a supervised
	// Checkpointer handler takes (called from the agent's own goroutine,
	// after the snapshot is stored). The durable store journals these to
	// its WAL so checkpoints survive process death, not just restarts.
	// Set before registering agents.
	OnCheckpoint func(id ID, snapshot any)

	// OnDeadLetter, when set, observes every envelope pushed into the
	// dead-letter ring (called outside the ring lock, after the push).
	// Set before registering agents.
	OnDeadLetter func(dl DeadLetter)

	// OnAgentRestart, when set, is called after supervision decides to
	// restart a crashed agent (from the supervisor's goroutine, before
	// the backoff sleep). The durable store uses it to force-fsync the
	// journal: a crashing agent is exactly the one whose last checkpoint
	// must not be lost. Set before registering agents.
	OnAgentRestart func(id ID, err error)

	// Breakers, when set, guards destinations with per-route circuit
	// breakers: Send outcomes feed them, and every conversation
	// (Call/CallRetry/SendRetry) consults them before each attempt so a
	// destination that telemetry or repeated failures marked bad is shed
	// instead of retried into.
	Breakers *supervise.BreakerSet

	// Mailbox bounds agent mailboxes and picks the overload policy
	// (see MailboxOptions). Read at Register time.
	Mailbox MailboxOptions

	mu      sync.RWMutex
	agents  map[ID]*registration
	seeds   map[ID]any // recovered checkpoints awaiting registration
	routes  []routeEntry
	nextRID RouteID
	seq     seqCounter
	closed  bool

	// sup supervises agent run loops; built lazily at first Register.
	sup *supervise.Supervisor

	// idleCallers is the free list of ephemeral conversation IDs (see
	// openInbox).
	idleMu      sync.Mutex
	idleCallers []ID

	// delivered counts envelopes successfully handed to a deputy or
	// accepted by a route; dropped counts undeliverable envelopes;
	// retries counts re-attempted sends; shedded counts envelopes
	// refused or evicted by mailbox overload control.
	delivered atomic.Uint64
	dropped   atomic.Uint64
	retries   atomic.Uint64
	shedded   atomic.Uint64

	// Dead-letter accounting: a bounded ring of the most recent
	// undeliverable envelopes plus an unbounded per-reason counter.
	dlMu    sync.Mutex
	dlRing  []DeadLetter
	dlNext  int // next write position once the ring is full
	dlTotal uint64
	dlWhy   map[DropReason]uint64

	// metrics is always non-nil for platforms built via NewPlatform;
	// see docs/observability.md for the series catalog.
	metrics *obs.Registry
}

// RouteFunc tries to deliver an envelope to a non-local destination. It
// reports whether it accepted the envelope.
type RouteFunc func(env Envelope) bool

// ErrUnknownAgent reports a send to an ID no route can reach.
var ErrUnknownAgent = errors.New("agent: unknown destination")

// ErrClosed reports use of a closed platform.
var ErrClosed = errors.New("agent: platform closed")

// ErrTTLExpired reports an envelope that exceeded the platform hop budget.
var ErrTTLExpired = errors.New("agent: envelope hop budget exhausted")

// NewPlatform builds an empty platform.
func NewPlatform(name string) *Platform {
	return &Platform{
		Name:    name,
		agents:  map[ID]*registration{},
		seeds:   map[ID]any{},
		dlWhy:   map[DropReason]uint64{},
		metrics: obs.NewRegistry(),
	}
}

// Metrics exposes the platform's metric registry so co-located
// subsystems (runtime, injectors) can record into the same snapshot.
func (p *Platform) Metrics() *obs.Registry { return p.metrics }

// MetricsSnapshot captures every platform metric, including the
// agent_deliver_latency_seconds histogram with p50/p95/p99.
func (p *Platform) MetricsSnapshot() obs.Snapshot { return p.metrics.Snapshot() }

// clock returns the configured time source (wall clock by default).
func (p *Platform) clock() obs.Clock {
	if p.Clock != nil {
		return p.Clock
	}
	return obs.Real
}

// trace records a hop span when tracing is enabled. On the wall clock
// the tracer stamps the span itself, after deciding to keep it.
func (p *Platform) trace(kind string, env Envelope, note string) {
	if p.Tracer == nil || env.TraceID == 0 {
		return
	}
	s := obs.Span{
		Trace: env.TraceID,
		Seq:   env.Seq,
		Node:  p.Name,
		Kind:  kind,
		From:  string(env.From),
		To:    string(env.To),
		Note:  note,
	}
	if p.Clock != nil {
		s.Time = p.Clock.Now()
	}
	p.Tracer.Record(s)
}

// Register hosts an agent under id with the given behaviour and attributes.
// The returned error is non-nil when the ID is taken or the platform is
// closed. A default mailbox deputy is used unless wrap decorates it (wrap
// may be nil). The agent's run loop executes as a supervised child: a
// panicking handler is recovered and the loop restarted under the
// platform's Supervision policy, restoring the handler's last checkpoint
// when it implements Checkpointer.
func (p *Platform) Register(id ID, h Handler, attrs Attributes, wrap func(Deputy) Deputy) error {
	if id == "" || h == nil {
		return fmt.Errorf("agent: register needs an id and a handler")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.vacantLocked(id); err != nil {
		return err
	}
	reg := &registration{
		attrs: attrs.Clone(),
		box:   newMailbox(p.Mailbox.withDefaults()),
	}
	var d Deputy = &mailboxDeputy{p: p, reg: reg}
	if wrap != nil {
		d = wrap(d)
	}
	reg.deputy = d
	p.agents[id] = reg

	ctx := &Context{Self: id, Platform: p}
	cp, _ := h.(Checkpointer)
	if cp != nil {
		// A checkpoint recovered from durable storage (SeedCheckpoint
		// before Register) becomes the agent's starting state.
		if snap, ok := p.seeds[id]; ok {
			reg.ckpt, reg.hasCkpt = snap, true
			delete(p.seeds, id)
		}
	}
	handle := func(env Envelope) {
		h.Handle(env, ctx)
		if cp != nil {
			snap := cp.Checkpoint()
			reg.ckptMu.Lock()
			reg.ckpt, reg.hasCkpt = snap, true
			reg.ckptMu.Unlock()
			if fn := p.OnCheckpoint; fn != nil {
				fn(id, snap)
			}
		}
	}
	reg.proc = p.supervisorLocked().Spawn("agent:"+string(id), func(stop <-chan struct{}) {
		if cp != nil {
			reg.ckptMu.Lock()
			snap, ok := reg.ckpt, reg.hasCkpt
			reg.ckptMu.Unlock()
			if ok {
				cp.Restore(snap)
			}
		}
		// Priority lane first (take): telemetry and control envelopes are
		// handled ahead of queued data-plane traffic. After a stop the
		// loop drains what is queued, then exits.
		box, stopped := reg.box, false
		for {
			if env, from := box.take(); from != nil {
				if from.room != nil {
					poke(from.room) // the freed slot, to a sender parked under Block
				}
				handle(env)
				continue
			}
			if stopped {
				return
			}
			select {
			case <-box.wake:
			case <-stop:
				stopped = true
			}
		}
	})
	return nil
}

// vacantLocked reports why id cannot be installed in the agent table: the
// platform is closed or the ID is taken. Callers hold p.mu.
func (p *Platform) vacantLocked(id ID) error {
	if p.closed {
		return ErrClosed
	}
	if _, ok := p.agents[id]; ok {
		return fmt.Errorf("agent: id %q already registered", id)
	}
	return nil
}

// Deregister removes an agent and stops its goroutine (after it drains its
// mailbox).
func (p *Platform) Deregister(id ID) {
	p.mu.Lock()
	reg, ok := p.agents[id]
	if ok {
		delete(p.agents, id)
	}
	p.mu.Unlock()
	if ok && reg.proc != nil { // a conversation inbox has no run loop
		reg.proc.Stop()
	}
}

// Attributes returns a copy of an agent's attributes and whether it exists.
func (p *Platform) Attributes(id ID) (Attributes, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	reg, ok := p.agents[id]
	if !ok {
		return Attributes{}, false
	}
	return reg.attrs.Clone(), true
}

// AddRoute appends a gateway route for non-local destinations and returns
// a handle for RemoveRoute.
func (p *Platform) AddRoute(r RouteFunc) RouteID {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextRID++
	id := p.nextRID
	label := strconv.FormatUint(uint64(id), 10)
	// Copy-on-write so Send can iterate a snapshot outside the lock.
	routes := make([]routeEntry, len(p.routes), len(p.routes)+1)
	copy(routes, p.routes)
	p.routes = append(routes, routeEntry{id, r, p.metrics.Counter("agent_route_delivered_total", "route", label), "route " + label})
	return id
}

// RemoveRoute uninstalls a route. It reports whether the handle was
// installed. Transports must call this when they close, or the dead route
// leaks and keeps rejecting (or worse, black-holing) traffic.
func (p *Platform) RemoveRoute(id RouteID) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, e := range p.routes {
		if e.id == id {
			routes := make([]routeEntry, 0, len(p.routes)-1)
			routes = append(routes, p.routes[:i]...)
			routes = append(routes, p.routes[i+1:]...)
			p.routes = routes
			return true
		}
	}
	return false
}

// Send assigns a sequence number and routes the envelope: local deputy
// first, then gateway routes in order. Undeliverable envelopes land in the
// dead-letter ring with a drop reason.
//
//lint:hot budget=20
func (p *Platform) Send(env Envelope) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return ErrClosed
	}
	reg, local := p.agents[env.To]
	routes := p.routes
	p.mu.RUnlock()

	if env.Seq == 0 {
		env.Seq = p.seq.next()
	}
	if (p.Tracer != nil || p.Events != nil) && env.TraceID == 0 {
		env.TraceID = obs.NewTraceID()
	}
	p.trace(obs.SpanSend, env, "")
	if env.Hops > DefaultMaxHops {
		p.deadLetter(env, DropTTLExpired)
		return fmt.Errorf("%w: %q after %d hops", ErrTTLExpired, env.To, env.Hops)
	}
	if local {
		start := p.clock().Now()
		if err := p.safeDeliver(reg.deputy, env); err != nil {
			reason := DropMailboxFull
			switch {
			case errors.Is(err, ErrDeliverPanic):
				reason = DropDeliverPanic
			case errors.Is(err, errQueueFull):
				reason = DropLinkDown
			}
			if reason == DropMailboxFull {
				p.noteShed() // counted where it is dead-lettered, so Shed = mailbox_full + shed_oldest
			}
			p.deadLetter(env, reason)
			p.breakerFailure(env.To)
			return err
		}
		p.delivered.Add(1)
		p.metrics.Histogram("agent_deliver_latency_seconds").
			Observe(p.clock().Now().Sub(start).Seconds())
		if reg.box != nil { // a conversation inbox has no mailbox to gauge
			g := reg.depth.Load()
			if g == nil {
				g = p.metrics.Gauge("agent_mailbox_depth", "agent", string(env.To))
				reg.depth.Store(g)
			}
			g.Set(float64(reg.box.depth.Load()))
		}
		p.metrics.Counter("agent_delivered_total").Inc()
		p.trace(obs.SpanDeliver, env, "")
		p.breakerSuccess(env.To)
		return nil
	}
	anyPanicked := false
	for _, r := range routes {
		accepted, panicked := safeRoute(r.fn, env)
		anyPanicked = anyPanicked || panicked
		if accepted {
			p.delivered.Add(1)
			p.metrics.Counter("agent_delivered_total").Inc()
			r.delivered.Inc()
			p.trace(obs.SpanRoute, env, r.note)
			p.breakerSuccess(env.To)
			return nil
		}
	}
	p.breakerFailure(env.To)
	if anyPanicked {
		p.deadLetter(env, DropDeliverPanic)
		return fmt.Errorf("%w: route to %q", ErrDeliverPanic, env.To)
	}
	p.deadLetter(env, DropNoRoute)
	return fmt.Errorf("%w: %q", ErrUnknownAgent, env.To)
}

// deadLetter records a terminally undeliverable envelope. The ring is
// bounded by DefaultDeadLetterCap; once full,
// the oldest retained letter is evicted and counted.
func (p *Platform) deadLetter(env Envelope, reason DropReason) {
	p.dropped.Add(1)
	p.metrics.Counter("agent_dead_letter_total", "reason", string(reason)).Inc()
	p.trace(obs.SpanDrop, env, string(reason))
	dl := DeadLetter{Env: env, Reason: reason}
	p.dlMu.Lock()
	p.dlTotal++
	p.dlWhy[reason]++
	p.pushDeadLetterLocked(dl)
	p.dlMu.Unlock()
	if fn := p.OnDeadLetter; fn != nil {
		fn(dl)
	}
}

// pushDeadLetterLocked appends to the ring, evicting the oldest letter
// once the ring is at capacity. Caller holds p.dlMu.
func (p *Platform) pushDeadLetterLocked(dl DeadLetter) {
	if len(p.dlRing) < DefaultDeadLetterCap {
		p.dlRing = append(p.dlRing, dl)
		p.metrics.Gauge("agent_dead_letter_depth").Set(float64(len(p.dlRing)))
		return
	}
	p.dlRing[p.dlNext] = dl
	p.dlNext = (p.dlNext + 1) % len(p.dlRing)
	p.metrics.Counter("agent_dead_letter_evicted_total").Inc()
	p.metrics.Gauge("agent_dead_letter_depth").Set(float64(len(p.dlRing)))
}

// RestoreDeadLetters refills the ring with letters recovered from
// durable storage (oldest first), counting them into the per-reason
// totals but not firing OnDeadLetter — the recovered letters are
// already journaled. Call before traffic starts.
func (p *Platform) RestoreDeadLetters(letters []DeadLetter) {
	p.dlMu.Lock()
	defer p.dlMu.Unlock()
	for _, dl := range letters {
		p.dropped.Add(1)
		p.dlTotal++
		p.dlWhy[dl.Reason]++
		p.pushDeadLetterLocked(dl)
	}
}

// noteRetry bumps the retry counter (CallRetry / SendRetry attempts beyond
// the first).
func (p *Platform) noteRetry() {
	p.retries.Add(1)
	p.metrics.Counter("agent_retries_total").Inc()
}

// DeliveryStats snapshots the platform's envelope accounting.
func (p *Platform) DeliveryStats() DeliveryStats {
	st := DeliveryStats{
		Delivered: p.delivered.Load(),
		Dropped:   p.dropped.Load(),
		Retries:   p.retries.Load(),
		Shed:      p.shedded.Load(),
		Reasons:   map[DropReason]uint64{},
	}
	p.dlMu.Lock()
	st.DeadLettered = p.dlTotal
	for k, v := range p.dlWhy {
		st.Reasons[k] = v
	}
	p.dlMu.Unlock()
	return st
}

// DeadLetters returns the retained dead letters, oldest first.
func (p *Platform) DeadLetters() []DeadLetter {
	p.dlMu.Lock()
	defer p.dlMu.Unlock()
	out := make([]DeadLetter, 0, len(p.dlRing))
	out = append(out, p.dlRing[p.dlNext:]...)
	out = append(out, p.dlRing[:p.dlNext]...)
	return out
}

// Close stops every agent. Subsequent Sends fail with ErrClosed.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	regs := make([]*registration, 0, len(p.agents))
	for _, reg := range p.agents {
		regs = append(regs, reg)
	}
	p.agents = map[ID]*registration{}
	p.routes = nil
	p.mu.Unlock()
	for _, reg := range regs {
		if reg.proc != nil {
			reg.proc.Stop()
		}
	}
}
