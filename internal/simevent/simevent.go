// Package simevent provides a deterministic discrete-event simulation
// kernel. It is the substrate beneath the sensor-network simulator: events
// are scheduled at virtual timestamps and executed in timestamp order, with
// FIFO tie-breaking so that runs are reproducible.
//
// The kernel is deliberately single-threaded: determinism matters more than
// parallel event execution for the network sizes the paper considers.
// Parallelism in this repository lives in the computation substrates (the
// PDE solvers, the grid scheduler), not in the event loop.
package simevent

import (
	"errors"
	"fmt"
	"math"
)

// Time is a virtual simulation timestamp. The zero Time is the start of the
// simulation. Time advances only when the kernel executes events.
type Time float64

// Duration is a span of virtual time.
type Duration = Time

// Infinity is a timestamp later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Handler is a scheduled action. It runs with the kernel clock set to the
// event's timestamp.
type Handler func()

// Func is a scheduled action given the argument it was scheduled with. One
// Func held for many events (a method value kept in a field) schedules them
// without allocating, where a Handler closing over each event's state does.
type Func func(arg uint64)

// event is a scheduled occurrence, held by value in the kernel's heap. One
// of h and fn is set; a cancelled event is a tombstone with neither.
type event struct {
	at  Time
	seq uint64 // FIFO tie-break for equal timestamps; also its EventID
	h   Handler
	fn  Func
	arg uint64
}

// EventID names a scheduled event so it can be cancelled.
type EventID uint64

// ErrStopped is returned by Schedule and Run after the kernel halted.
var ErrStopped = errors.New("simevent: kernel stopped")

// Kernel is a discrete-event simulation engine. Construct with NewKernel.
type Kernel struct {
	now     Time
	queue   []event // binary min-heap on (at, seq)
	nextSeq uint64
	pending int // queued events that are not tombstones
	stopped bool
	// executed counts handlers actually run (cancelled events excluded).
	executed uint64
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled and not cancelled.
func (k *Kernel) Pending() int { return k.pending }

// Schedule runs h at absolute virtual time at. Scheduling in the past
// (before Now) is an error; scheduling exactly at Now is allowed and the
// handler runs after all currently pending handlers with the same
// timestamp. The label names the event in the error and is not kept.
func (k *Kernel) Schedule(at Time, label string, h Handler) (EventID, error) {
	return k.push(label, event{at: at, h: h})
}

// ScheduleFunc runs fn(arg) at absolute virtual time at, on Schedule's
// terms. Budget 4: the event (a value), the queue's growth (the queue is
// reused), and the two errors.
//
//lint:hot budget=4
func (k *Kernel) ScheduleFunc(at Time, label string, fn Func, arg uint64) (EventID, error) {
	return k.push(label, event{at: at, fn: fn, arg: arg})
}

// push is the one way onto the queue: it numbers ev and sifts it up.
func (k *Kernel) push(label string, ev event) (EventID, error) {
	switch {
	case k.stopped:
		return 0, ErrStopped
	case ev.at < k.now:
		return 0, fmt.Errorf("simevent: schedule %q at %v before now %v", label, ev.at, k.now)
	case ev.h == nil && ev.fn == nil:
		return 0, fmt.Errorf("simevent: schedule %q with nil handler", label)
	}
	k.nextSeq++
	ev.seq = k.nextSeq
	k.queue = append(k.queue, ev)
	for i := len(k.queue) - 1; i > 0 && k.before(i, (i-1)/2); i = (i - 1) / 2 {
		k.queue[i], k.queue[(i-1)/2] = k.queue[(i-1)/2], k.queue[i]
	}
	k.pending++
	return EventID(ev.seq), nil
}

// After runs h after delay d from the current virtual time.
func (k *Kernel) After(d Duration, label string, h Handler) (EventID, error) {
	if d < 0 {
		return 0, fmt.Errorf("simevent: negative delay %v for %q", d, label)
	}
	return k.Schedule(k.now+d, label, h)
}

// Cancel removes a scheduled event, leaving a tombstone in the queue, and
// reports false for one that already ran or was cancelled. It scans the
// queue, which suits its one caller, Ticker.Stop.
func (k *Kernel) Cancel(id EventID) bool {
	for i := range k.queue {
		if ev := &k.queue[i]; ev.seq == uint64(id) && (ev.h != nil || ev.fn != nil) {
			ev.h, ev.fn = nil, nil
			k.pending--
			return true
		}
	}
	return false
}

// Stop halts the simulation: Run returns after the current handler and
// further Schedule calls fail.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop was called. A handler that delivers several
// simultaneous occurrences checks it between them, so that a Stop from one
// suppresses the rest as it would suppress later events.
func (k *Kernel) Stopped() bool { return k.stopped }

// step executes the earliest pending event due by until, if any.
//
//lint:hot budget=0
func (k *Kernel) step(until Time) bool {
	for len(k.queue) > 0 && !k.stopped && k.queue[0].at <= until {
		ev := k.pop()
		if ev.h == nil && ev.fn == nil {
			continue
		}
		k.pending--
		k.now = ev.at
		k.executed++
		if ev.fn != nil {
			ev.fn(ev.arg)
		} else {
			ev.h()
		}
		return true
	}
	return false
}

// Run executes events until the queue drains, the kernel is stopped, or the
// clock passes until. Events with timestamp exactly equal to until still
// run. It returns the number of handlers executed during this call.
func (k *Kernel) Run(until Time) uint64 {
	start := k.executed
	for k.step(until) {
	}
	// Advance the clock to the horizon so repeated bounded runs make
	// progress even through quiet periods, but never move it backwards.
	if until != Infinity && until > k.now && !k.stopped {
		k.now = until
	}
	return k.executed - start
}

// RunAll executes events until none remain or the kernel stops.
func (k *Kernel) RunAll() uint64 { return k.Run(Infinity) }

// before orders the heap: earlier timestamp first, then earlier sequence.
func (k *Kernel) before(i, j int) bool {
	a, b := &k.queue[i], &k.queue[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// pop removes the earliest event; the vacated slot is cleared.
func (k *Kernel) pop() event {
	q, last, top := k.queue, len(k.queue)-1, k.queue[0]
	q[0] = q[last]
	clear(q[last:])
	k.queue = q[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < last && k.before(l, least) {
			least = l
		}
		if l+1 < last && k.before(l+1, least) {
			least = l + 1
		}
		if least == i {
			return top
		}
		q[i], q[least] = q[least], q[i]
		i = least
	}
}
