package agent

import "fmt"

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

// mailboxDeputy is the innermost deputy: it admits envelopes into the
// registration's lanes under the platform's overload policy. It is the
// deputy Register builds.
type mailboxDeputy struct {
	p   *Platform
	reg *registration
}

// Deliver implements Deputy.
func (d *mailboxDeputy) Deliver(env Envelope) error {
	lane := d.reg.mailbox
	if env.HighPriority() {
		lane = d.reg.high
	}
	select {
	case lane <- env:
		return nil
	default:
	}
	switch d.p.Mailbox.Policy {
	case DropOldest:
		// Evict until the new envelope fits. Bounded attempts: under
		// heavy producer contention the slot we free can be stolen, and
		// losing that race a few times means the lane is churning fast
		// enough that rejecting is fair.
		for i := 0; i < 4; i++ {
			select {
			case old := <-lane:
				d.p.shed(old, DropShedOldest)
			default:
				// The agent drained the lane between probes.
			}
			select {
			case lane <- env:
				return nil
			default:
			}
		}
		d.p.noteShed()
		return ErrMailboxFull
	case Block:
		select {
		case lane <- env:
			return nil
		case <-d.reg.proc.Stopping():
			// The agent is stopping; unblock the sender with the
			// transient error so its retry layer can re-route.
			return ErrMailboxFull
		}
	default: // DropNewest
		d.p.noteShed()
		return ErrMailboxFull
	}
}

// shed dead-letters an envelope evicted by overload control and counts
// it as shed load.
func (p *Platform) shed(env Envelope, reason DropReason) {
	p.noteShed()
	p.deadLetter(env, reason)
}

// noteShed bumps the shed-load accounting.
func (p *Platform) noteShed() {
	p.shedded.Add(1)
	p.metrics.Counter("agent_shed_total", "policy", p.Mailbox.Policy.String()).Inc()
}
