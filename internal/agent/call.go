package agent

import (
	"errors"
	"slices"
	"strconv"
	"sync/atomic"
	"time"
)

// callCounter mints ephemeral caller IDs, unique per process so two client
// platforms behind one gateway never share a reverse route.
var callCounter atomic.Uint64

// ErrCallTimeout reports a Call that received no reply in time.
var ErrCallTimeout = errors.New("agent: call timed out")

// Call performs a synchronous request/reply conversation: it registers an
// ephemeral agent, sends the request, waits for the correlated reply (an
// envelope whose InReplyTo matches the request), and cleans up. It is
// CallRetry with a single attempt, on the platform's clock; long-lived
// agents should hold their own registration instead.
func Call(p *Platform, to ID, performative, ontology string, body any, timeout time.Duration) (Envelope, error) {
	return CallRetry(p, to, performative, ontology, body, timeout, RetryPolicy{MaxAttempts: 1, Clock: p.Clock})
}

// inbox is a conversation's ephemeral caller agent: replies addressed to id
// queue on replies.
type inbox struct {
	p       *Platform
	id      ID
	replies chan Envelope
}

// openInbox registers the ephemeral agent a conversation receives on. Its
// ID comes from the platform's free list when one is idle, so the state
// other layers key by agent ID (gateway reverse routes, mailbox gauges,
// breaker targets) is bounded by concurrent conversations, not by
// conversations completed. A recycled ID can see a late reply meant for its
// previous holder; await rejects it by sequence number. The agent's
// mailbox lanes are depth deep like the reply queue behind them — a deeper
// mailbox would only hold what the full queue then drops, and the
// platform-wide 64+16 slots would be most of what a short conversation
// allocates.
func (p *Platform) openInbox(depth int) (inbox, error) {
	p.idleMu.Lock()
	var id ID
	if n := len(p.idleCallers); n > 0 {
		id, p.idleCallers = p.idleCallers[n-1], p.idleCallers[:n-1]
	} else {
		id = ID("caller-" + strconv.FormatUint(callCounter.Add(1), 10))
	}
	p.idleMu.Unlock()
	replies := make(chan Envelope, depth)
	err := p.register(id, HandlerFunc(func(env Envelope, _ *Context) {
		select {
		case replies <- env:
		default:
		}
	}), Attributes{Agent: map[string]string{AttrRole: RoleClient}}, nil,
		MailboxOptions{Capacity: depth, HighCapacity: depth})
	// A refused ID (platform closed, or the name is taken by a hosted agent)
	// is not recycled.
	return inbox{p: p, id: id, replies: replies}, err
}

// close deregisters the ephemeral agent and returns its ID to the free list.
func (in inbox) close() {
	in.p.Deregister(in.id)
	in.p.idleMu.Lock()
	in.p.idleCallers = append(in.p.idleCallers, in.id)
	in.p.idleMu.Unlock()
}

// await returns the first envelope that replies to one of the sent sequence
// numbers, or false once expired fires. Anything else — an unrelated
// broadcast (InReplyTo 0), a reply to an earlier conversation — is skipped.
func (in inbox) await(sent []uint64, expired <-chan time.Time) (Envelope, bool) {
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
