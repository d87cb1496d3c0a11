package agent

import (
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// callCounter numbers conversation caller IDs within one process. A caller ID
// is "<platform>/caller-N": the counter keeps it unique within the process and
// the platform name across processes, so two clients behind one gateway never
// share a reverse route.
var callCounter atomic.Uint64

// ErrCallTimeout reports a Call that received no reply in time.
var ErrCallTimeout = errors.New("agent: call timed out")

// Call performs a synchronous request/reply conversation: it installs a
// conversation inbox, sends the request, waits for the correlated reply (an
// envelope whose InReplyTo matches the request), and cleans up. It is
// CallRetry with a single attempt, on the platform's clock; long-lived
// agents should hold their own registration instead.
func Call(p *Platform, to ID, performative, ontology string, body any, timeout time.Duration) (Envelope, error) {
	return CallRetry(p, to, performative, ontology, body, timeout, RetryPolicy{MaxAttempts: 1, Clock: p.Clock})
}

// inbox is a conversation's receiving end: a deputy, not an agent. It is
// registered under id with no mailbox lanes and no run loop, and queues what
// is delivered to it on replies for await. replies is never closed, so a
// delivery racing close cannot panic; it is collected with the inbox.
type inbox struct {
	p       *Platform
	id      ID
	replies chan Envelope
}

// Deliver implements Deputy. A full inbox refuses under every MailboxPolicy:
// a conversation that is not reading must neither park a replying agent
// (Block) nor evict a reply it may still be waiting for (DropOldest). The
// refusal is dead-lettered mailbox_full, and counted as shed, by Send.
func (in *inbox) Deliver(env Envelope) error {
	select {
	case in.replies <- env:
		return nil
	default:
		return ErrMailboxFull
	}
}

// callerAttrs marks every inbox a client; shared, as Attributes hands out clones.
var callerAttrs = Attributes{Agent: map[string]string{AttrRole: RoleClient}}

// openInbox installs the deputy a conversation receives on, with room for
// depth undelivered replies. Its ID comes from the platform's free list when
// one is idle, so the state other layers key by agent ID (gateway reverse
// routes, breaker targets) is bounded by concurrent conversations, not by
// conversations completed. A recycled ID can see a late reply meant for its
// previous holder; await rejects it by sequence number.
func (p *Platform) openInbox(depth int) (*inbox, error) {
	p.idleMu.Lock()
	var id ID
	if n := len(p.idleCallers); n > 0 {
		id, p.idleCallers = p.idleCallers[n-1], p.idleCallers[:n-1]
	} else {
		id = ID(p.Name + "/caller-" + strconv.FormatUint(callCounter.Add(1), 10))
	}
	p.idleMu.Unlock()
	in := &inbox{p: p, id: id, replies: make(chan Envelope, depth)}
	p.mu.Lock()
	defer p.mu.Unlock()
	// A refused ID (platform closed, or the name is taken by a hosted agent)
	// is not recycled.
	if err := p.vacantLocked(id); err != nil {
		return nil, err
	}
	p.agents[id] = &registration{deputy: in, attrs: callerAttrs}
	return in, nil
}

// close removes the inbox and returns its ID to the free list.
func (in *inbox) close() {
	in.p.Deregister(in.id)
	in.p.idleMu.Lock()
	in.p.idleCallers = append(in.p.idleCallers, in.id)
	in.p.idleMu.Unlock()
}

// await returns the first envelope that replies to one of the sent sequence
// numbers, or false once expired fires. Anything else — an unrelated
// broadcast (InReplyTo 0), a reply to an earlier conversation — is skipped.
func (in *inbox) await(sent []uint64, expired <-chan time.Time) (Envelope, bool) {
	for {
		select {
		case r := <-in.replies:
			if slices.Contains(sent, r.InReplyTo) {
				return r, true
			}
		case <-expired:
			return Envelope{}, false
		}
	}
}
