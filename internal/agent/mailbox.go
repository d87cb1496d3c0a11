package agent

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Mailbox overload control: the paper's grid must keep its control plane
// alive when the data plane saturates ("mission control" still needs
// telemetry while a burst drowns a worker). Every agent mailbox is two
// bounded lanes — a normal lane and a priority lane for telemetry and
// control ontologies — and a platform-wide policy decides what a full
// lane does with the next envelope: reject it, evict the oldest, or park
// the sender.

// MailboxPolicy selects what a full mailbox lane does with an incoming
// envelope.
type MailboxPolicy int

const (
	// DropNewest rejects the incoming envelope with ErrMailboxFull — the
	// sender finds out immediately and its retry layer takes over (the
	// platform's original semantics).
	DropNewest MailboxPolicy = iota
	// DropOldest evicts the oldest queued envelope to admit the new one.
	// The evicted envelope is dead-lettered with DropShedOldest — fresh
	// data beats stale data, the right trade for sensor readings.
	DropOldest
	// Block parks the sender until the lane has room or the agent stops.
	// Backpressure instead of loss; use where senders can afford to wait.
	Block
)

// String renders the policy for flags and experiment tables.
func (mp MailboxPolicy) String() string {
	switch mp {
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	case Block:
		return "block"
	}
	return "unknown"
}

// ParseMailboxPolicy parses a -mailbox-policy flag value.
func ParseMailboxPolicy(s string) (MailboxPolicy, error) {
	switch s {
	case "drop-newest", "":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldest, nil
	case "block":
		return Block, nil
	}
	return DropNewest, fmt.Errorf("agent: unknown mailbox policy %q (drop-newest, drop-oldest, block)", s)
}

// DefaultMailboxCapacity bounds the normal lane when MailboxOptions is
// zero (the capacity agents have had since PR 1).
const DefaultMailboxCapacity = 64

// DefaultHighCapacity bounds the priority lane.
const DefaultHighCapacity = 16

// MailboxOptions bounds agent mailboxes platform-wide. Read at Register
// time; set before registering agents.
type MailboxOptions struct {
	// Capacity is the normal lane depth (default 64). The priority lane
	// is always DefaultHighCapacity deep.
	Capacity int
	// Policy is the overload behaviour (default DropNewest).
	Policy MailboxPolicy
}

func (m MailboxOptions) withDefaults() MailboxOptions {
	if m.Capacity <= 0 {
		m.Capacity = DefaultMailboxCapacity
	}
	return m
}

// firstRingSlots is what a lane allocates on its first envelope; it
// doubles from there up to the lane's cap.
const firstRingSlots = 4

// mailbox is a hosted agent's two lanes under one mutex, so an agent that
// is never sent anything holds no slots. depth counts what both lanes
// hold, for the gauge and Drain; the run loop parks on wake while both
// are empty.
type mailbox struct {
	mu     sync.Mutex
	normal ring
	high   ring // priority lane (telemetry / control ontologies)
	policy MailboxPolicy
	depth  atomic.Int64
	wake   chan struct{} // cap 1: a delivery into an empty mailbox
}

// ring is one lane: n envelopes from buf[head], wrapping, at most limit.
// Under Block, room (cap 1) carries "a slot was freed" from the run loop
// to one parked sender, and each admitted sender passes it on, so every
// sender parked while slots free up is woken in turn. A link's queue uses
// room the same way (fifo).
type ring struct {
	buf     []Envelope
	head, n int
	limit   int
	room    chan struct{} // nil unless senders wait for a slot
}

func newMailbox(opts MailboxOptions) *mailbox {
	m := &mailbox{
		normal: ring{limit: opts.Capacity},
		high:   ring{limit: DefaultHighCapacity},
		policy: opts.Policy,
		wake:   make(chan struct{}, 1),
	}
	if opts.Policy == Block {
		m.normal.room = make(chan struct{}, 1)
		m.high.room = make(chan struct{}, 1)
	}
	return m
}

// admit queues env on lane r and reports whether it fit. A full lane
// refuses it unless evict is set; then the oldest envelope is pushed out
// and returned as old. first reports a delivery into an empty mailbox,
// whose run loop the caller must wake.
//
//lint:hot budget=1
func (m *mailbox) admit(r *ring, env Envelope, evict bool) (old Envelope, evicted, ok, first bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.n == r.limit {
		if !evict {
			return old, false, false, false
		}
		old, evicted = r.pop(), true
	} else {
		first = m.depth.Add(1) == 1
	}
	r.push(env)
	return old, evicted, true, first
}

// take removes the next envelope, priority lane first, and returns the
// lane it freed a slot in; from is nil when both lanes are empty.
//
//lint:hot budget=0
func (m *mailbox) take() (env Envelope, from *ring) {
	m.mu.Lock()
	defer m.mu.Unlock()
	from = &m.high
	if from.n == 0 {
		from = &m.normal
		if from.n == 0 {
			return env, nil
		}
	}
	m.depth.Add(-1)
	return from.pop(), from
}

// push appends env; the caller has checked the ring is below its limit.
func (r *ring) push(env Envelope) {
	r.grow()
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = env
	r.n++
}

// unpop puts env back at the head, where pop took it from; the caller has
// checked the ring is below its limit.
func (r *ring) unpop(env Envelope) {
	r.grow()
	if r.head == 0 {
		r.head = len(r.buf)
	}
	r.head--
	r.buf[r.head] = env
	r.n++
}

// grow makes room for one more envelope if every slot is taken.
func (r *ring) grow() {
	if r.n == len(r.buf) {
		size := min(max(2*len(r.buf), firstRingSlots), r.limit)
		buf := make([]Envelope, size)
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
}

// pop removes the oldest envelope, zeroing its slot so the ring does not
// pin a handled envelope's Content.
func (r *ring) pop() Envelope {
	var zero Envelope
	env := r.buf[r.head]
	r.buf[r.head] = zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return env
}

// poke leaves a token on a cap-1 signal channel unless one is waiting.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// mailboxDeputy is the innermost deputy: it admits envelopes into the
// registration's mailbox under the platform's overload policy. It is the
// deputy Register builds.
type mailboxDeputy struct {
	p   *Platform
	reg *registration
}

// Deliver implements Deputy.
func (d *mailboxDeputy) Deliver(env Envelope) error {
	box := d.reg.box
	r := &box.normal
	if env.HighPriority() {
		r = &box.high
	}
	for {
		old, evicted, ok, first := box.admit(r, env, box.policy == DropOldest)
		if evicted {
			d.p.shed(old, DropShedOldest)
		}
		if ok {
			if first {
				poke(box.wake)
			}
			if r.room != nil {
				poke(r.room) // another parked sender may fit too
			}
			return nil
		}
		if box.policy != Block {
			return ErrMailboxFull
		}
		select {
		case <-r.room:
		case <-d.reg.proc.Stopping():
			// The agent is stopping; unblock the sender with the
			// transient error so its retry layer can re-route.
			return ErrMailboxFull
		}
	}
}

// shed dead-letters an envelope evicted by overload control and counts
// it as shed load.
func (p *Platform) shed(env Envelope, reason DropReason) {
	p.noteShed()
	p.deadLetter(env, reason)
}

// noteShed bumps the shed-load accounting, agent_shed_total labelled
// with the mailbox policy of the platform's first shed.
func (p *Platform) noteShed() {
	c := p.shedded.Load()
	if c == nil {
		c = p.metrics.Counter("agent_shed_total", "policy", p.Mailbox.Policy.String())
		p.shedded.Store(c)
	}
	c.Inc()
}
