package agent

import (
	"errors"
	"fmt"
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

// DisconnectionDeputy buffers envelopes while its agent's device is
// disconnected and flushes them on reconnect — the paper's "deputies that
// will provide features of ... disconnection management".
type DisconnectionDeputy struct {
	next Deputy

	mu        sync.Mutex
	connected bool
	buffer    []Envelope // at most storeForwardCap
}

// storeForwardCap bounds a store-and-forward queue: the disconnection
// deputy's, and a Link's unless ReconnectOptions.MaxBuffer says otherwise.
const storeForwardCap = 256

// NewDisconnectionDeputy wraps next, starting connected.
func NewDisconnectionDeputy(next Deputy) *DisconnectionDeputy {
	return &DisconnectionDeputy{next: next, connected: true}
}

// Deliver implements Deputy: pass through when connected, buffer otherwise.
// The pass-through runs outside d.mu: under MailboxPolicy Block the next
// deputy may park on a full lane, and Buffered, SetConnected and other
// senders must not wait behind it.
func (d *DisconnectionDeputy) Deliver(env Envelope) error {
	d.mu.Lock()
	if d.connected {
		d.mu.Unlock()
		return d.next.Deliver(env)
	}
	defer d.mu.Unlock()
	if len(d.buffer) >= storeForwardCap {
		return fmt.Errorf("agent: disconnection buffer full (%d)", storeForwardCap)
	}
	d.buffer = append(d.buffer, env)
	return nil
}

// SetConnected flips connectivity; reconnecting flushes the buffer in
// order. It returns how many buffered envelopes were flushed. The flush
// delivers outside d.mu so a downstream deputy may re-enter this deputy
// (query Buffered, even Deliver) without deadlocking.
func (d *DisconnectionDeputy) SetConnected(up bool) int {
	d.mu.Lock()
	d.connected = up
	if !up {
		d.mu.Unlock()
		return 0
	}
	buf := d.buffer
	d.buffer = nil
	d.mu.Unlock()
	flushed := 0
	for i, env := range buf {
		if err := d.next.Deliver(env); err != nil {
			// Keep the undelivered tail ahead of anything buffered
			// again in the meantime.
			d.mu.Lock()
			d.buffer = append(buf[i:len(buf):len(buf)], d.buffer...)
			d.mu.Unlock()
			return flushed
		}
		flushed++
	}
	return flushed
}

// Buffered reports the store-and-forward queue length.
func (d *DisconnectionDeputy) Buffered() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.buffer)
}
