package agent

import (
	"errors"
	"sync"
)

// Deputy is the front-end interface for reaching an agent: "each Agent
// Deputy must implement a deliver method". Deputies compose —
// disconnection management is a decorator around the direct deputy.
type Deputy interface {
	Deliver(env Envelope) error
}

// ErrMailboxFull reports an agent that cannot keep up.
var ErrMailboxFull = errors.New("agent: mailbox full")

// errQueueFull refuses an envelope a full store-and-forward queue has no
// room for; Send dead-letters it link_down.
var errQueueFull = errors.New("agent: store-and-forward queue full")

// storeForwardCap bounds a store-and-forward queue: the disconnection
// deputy's, and a Link's unless ReconnectOptions.MaxBuffer says otherwise.
const storeForwardCap = 256

// fifo is the store-and-forward queue of a Link and of a
// DisconnectionDeputy, guarded by its holder's mutex (DESIGN.md "A peer has
// one queue"). Whoever finds the peer up and the turn free claims it and
// hands the queue over in order, outside the mutex; a failed hand-off puts
// its envelope back at the head. A slot the turn frees in a full queue is
// poked into room, for a holder whose senders wait on it.
type fifo struct {
	ring
	busy bool // a turn is handing the queue to the peer
}

// claim takes the turn if the peer is up and nobody holds it.
func (f *fifo) claim(up bool) bool {
	if !up || f.busy {
		return false
	}
	f.busy = true
	return true
}

// next gives the turn the head to hand over, or ends the turn when the
// queue is empty or the peer is down.
func (f *fifo) next(up bool) (env Envelope, ok bool) {
	if up && f.n > 0 {
		if f.n == f.limit {
			poke(f.room) // a sender may be waiting for this slot
		}
		return f.pop(), true
	}
	f.busy = false
	return env, false
}

// DisconnectionDeputy holds envelopes while its agent's device is
// disconnected and hands them on in order once it is back — the paper's
// "deputies that will provide features of ... disconnection management".
type DisconnectionDeputy struct {
	next Deputy

	mu        sync.Mutex
	connected bool
	held      fifo
}

// NewDisconnectionDeputy wraps next, starting connected.
func NewDisconnectionDeputy(next Deputy) *DisconnectionDeputy {
	return &DisconnectionDeputy{next: next, connected: true, held: fifo{ring: ring{limit: storeForwardCap}}}
}

// Deliver implements Deputy. Connected with nothing queued or in hand, env
// goes straight to the next deputy, whose refusal is returned as it would be
// without this deputy; otherwise it queues, and a full queue refuses it (the
// envelope in hand keeps its slot, as a refusal returns it to the head).
// Hand-offs run outside d.mu: under MailboxPolicy Block the next deputy may
// park on a full lane.
func (d *DisconnectionDeputy) Deliver(env Envelope) error {
	d.mu.Lock()
	if d.connected && d.held.n == 0 && !d.held.busy {
		d.mu.Unlock()
		return d.next.Deliver(env)
	}
	if room := d.held.limit - d.held.n; room == 0 || room == 1 && d.held.busy {
		d.mu.Unlock()
		return errQueueFull
	}
	d.held.push(env)
	drain := d.held.claim(d.connected)
	d.mu.Unlock()
	if drain {
		d.drain()
	}
	return nil
}

// drain hands the queue to the next deputy for the holder of its turn, in
// order, until it is empty, the device disconnects, or an envelope is
// refused and goes back to the head. It returns how many it handed on.
func (d *DisconnectionDeputy) drain() (n int) {
	for {
		d.mu.Lock()
		env, ok := d.held.next(d.connected)
		d.mu.Unlock()
		if !ok {
			return n
		}
		if err := d.next.Deliver(env); err != nil {
			d.mu.Lock()
			d.held.unpop(env)
			d.held.busy = false
			d.mu.Unlock()
			return n
		}
		n++
	}
}

// SetConnected flips connectivity; reconnecting drains the queue in order
// unless a sender is draining it already, and returns how many envelopes
// this call handed on. Draining outside d.mu lets a downstream deputy
// re-enter this one (Buffered, even Deliver) without deadlocking.
func (d *DisconnectionDeputy) SetConnected(up bool) int {
	d.mu.Lock()
	d.connected = up
	drain := d.held.claim(up)
	d.mu.Unlock()
	if !drain {
		return 0
	}
	return d.drain()
}

// Buffered reports how many envelopes wait in the queue.
func (d *DisconnectionDeputy) Buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.held.n
}
