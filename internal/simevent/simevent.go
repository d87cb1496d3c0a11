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
	"container/heap"
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

// Event is a scheduled occurrence inside the kernel.
type event struct {
	at      Time
	seq     uint64 // FIFO tie-break for equal timestamps
	id      EventID
	handler Handler
	label   string
	stopped bool
	index   int // heap index, -1 when popped
}

// EventID names a scheduled event so it can be cancelled.
type EventID uint64

// ErrStopped is returned by Schedule and Run after the kernel halted.
var ErrStopped = errors.New("simevent: kernel stopped")

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	queue   eventQueue
	nextSeq uint64
	nextID  EventID
	events  map[EventID]*event
	stopped bool
	// Executed counts handlers actually run (cancelled events excluded).
	executed uint64
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{events: make(map[EventID]*event)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports how many events are scheduled and not cancelled.
func (k *Kernel) Pending() int { return len(k.events) }

// Schedule runs h at absolute virtual time at. Scheduling in the past
// (before Now) is an error; scheduling exactly at Now is allowed and the
// handler runs after all currently pending handlers with the same
// timestamp.
func (k *Kernel) Schedule(at Time, label string, h Handler) (EventID, error) {
	if k.stopped {
		return 0, ErrStopped
	}
	if at < k.now {
		return 0, fmt.Errorf("simevent: schedule %q at %v before now %v", label, at, k.now)
	}
	if h == nil {
		return 0, fmt.Errorf("simevent: schedule %q with nil handler", label)
	}
	k.nextSeq++
	k.nextID++
	ev := &event{at: at, seq: k.nextSeq, id: k.nextID, handler: h, label: label}
	heap.Push(&k.queue, ev)
	k.events[ev.id] = ev
	return ev.id, nil
}

// After runs h after delay d from the current virtual time.
func (k *Kernel) After(d Duration, label string, h Handler) (EventID, error) {
	if d < 0 {
		return 0, fmt.Errorf("simevent: negative delay %v for %q", d, label)
	}
	return k.Schedule(k.now+d, label, h)
}

// Cancel removes a scheduled event. Cancelling an event that already ran or
// was already cancelled reports false.
func (k *Kernel) Cancel(id EventID) bool {
	ev, ok := k.events[id]
	if !ok {
		return false
	}
	delete(k.events, id)
	ev.stopped = true
	return true
}

// Stop halts the simulation: Run returns after the current handler and
// further Schedule calls fail.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop was called. A handler that delivers several
// simultaneous occurrences checks it between them, so that a Stop from one
// suppresses the rest as it would suppress later events.
func (k *Kernel) Stopped() bool { return k.stopped }

// Step executes the single earliest pending event. It reports false when no
// events remain or the kernel is stopped.
func (k *Kernel) Step() bool {
	for k.queue.Len() > 0 {
		if k.stopped {
			return false
		}
		ev := heap.Pop(&k.queue).(*event)
		if ev.stopped {
			continue
		}
		delete(k.events, ev.id)
		k.now = ev.at
		k.executed++
		ev.handler()
		return true
	}
	return false
}

// Run executes events until the queue drains, the kernel is stopped, or the
// clock passes until. Events with timestamp exactly equal to until still
// run. It returns the number of handlers executed during this call.
func (k *Kernel) Run(until Time) uint64 {
	start := k.executed
	for k.queue.Len() > 0 && !k.stopped {
		next := k.queue[0]
		if next.at > until {
			break
		}
		k.Step()
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

// eventQueue is a binary heap ordered by (timestamp, sequence).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
