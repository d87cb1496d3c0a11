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
	buffer    []Envelope
	// MaxBuffer bounds the store-and-forward queue (default 256).
	MaxBuffer int
	dropped   int
}

// NewDisconnectionDeputy wraps next, starting connected.
func NewDisconnectionDeputy(next Deputy) *DisconnectionDeputy {
	return &DisconnectionDeputy{next: next, connected: true, MaxBuffer: 256}
}

// Deliver implements Deputy: pass through when connected, buffer otherwise.
func (d *DisconnectionDeputy) Deliver(env Envelope) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.connected {
		// next is the non-blocking inbox (or another deputy whose
		// Deliver never re-enters this one); the re-entrant flush path in
		// SetConnected already delivers outside the lock.
		//lint:ignore blockheld next.Deliver is non-blocking and never re-enters this deputy
		return d.next.Deliver(env)
	}
	max := d.MaxBuffer
	if max <= 0 {
		max = 256
	}
	if len(d.buffer) >= max {
		d.dropped++
		return fmt.Errorf("agent: disconnection buffer full (%d)", max)
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

// Dropped reports envelopes lost to buffer overflow.
func (d *DisconnectionDeputy) Dropped() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dropped
}
