package simevent

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceKernel is the kernel as it stood before events were held by
// value: a container/heap of *event pointers plus a map from ID to event for
// Cancel and Pending. It is the oracle for the kernel's order: the same
// handlers in the same order, the same Cancel results, the same clock.
type referenceKernel struct {
	now      Time
	queue    refQueue
	nextSeq  uint64
	nextID   EventID
	events   map[EventID]*refEvent
	stopped  bool
	executed uint64
}

type refEvent struct {
	at      Time
	seq     uint64
	id      EventID
	handler Handler
	stopped bool
	index   int
}

func newReferenceKernel() *referenceKernel {
	return &referenceKernel{events: make(map[EventID]*refEvent)}
}

func (k *referenceKernel) Now() Time    { return k.now }
func (k *referenceKernel) Pending() int { return len(k.events) }
func (k *referenceKernel) Stop()        { k.stopped = true }

func (k *referenceKernel) Schedule(at Time, label string, h Handler) (EventID, error) {
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
	ev := &refEvent{at: at, seq: k.nextSeq, id: k.nextID, handler: h}
	heap.Push(&k.queue, ev)
	k.events[ev.id] = ev
	return ev.id, nil
}

func (k *referenceKernel) After(d Duration, label string, h Handler) (EventID, error) {
	if d < 0 {
		return 0, fmt.Errorf("simevent: negative delay %v for %q", d, label)
	}
	return k.Schedule(k.now+d, label, h)
}

func (k *referenceKernel) Cancel(id EventID) bool {
	ev, ok := k.events[id]
	if !ok {
		return false
	}
	delete(k.events, id)
	ev.stopped = true
	return true
}

func (k *referenceKernel) Step() bool {
	for k.queue.Len() > 0 {
		if k.stopped {
			return false
		}
		ev := heap.Pop(&k.queue).(*refEvent)
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

func (k *referenceKernel) Run(until Time) uint64 {
	start := k.executed
	for k.queue.Len() > 0 && !k.stopped {
		next := k.queue[0]
		if next.stopped {
			// Not in the original: a cancelled event at the head let Step
			// run the next live one even when it lay past until.
			heap.Pop(&k.queue)
			continue
		}
		if next.at > until {
			break
		}
		k.Step()
	}
	if until != Infinity && until > k.now && !k.stopped {
		k.now = until
	}
	return k.executed - start
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// twin is one kernel under the property test with its own execution log.
// schedule is how the driver and the handlers put an event on it; the
// kernel under test alternates Schedule and ScheduleFunc.
type twin struct {
	now      func() Time
	pending  func() int
	schedule func(at Time, h Handler) (EventID, error)
	after    func(d Duration, h Handler) (EventID, error)
	cancel   func(EventID) bool
	step     func() bool
	run      func(Time) uint64
	stop     func()
	log      []int
	names    int
}

func referenceTwin() *twin {
	k := newReferenceKernel()
	return &twin{
		now: k.Now, pending: k.Pending, cancel: k.Cancel, step: k.Step, run: k.Run, stop: k.Stop,
		schedule: func(at Time, h Handler) (EventID, error) { return k.Schedule(at, "ref", h) },
		after:    func(d Duration, h Handler) (EventID, error) { return k.After(d, "ref", h) },
	}
}

func kernelTwin() *twin {
	k := NewKernel()
	calls := 0
	return &twin{
		now: k.Now, pending: k.Pending, cancel: k.Cancel, run: k.Run, stop: k.Stop,
		step: func() bool { return k.step(Infinity) },
		schedule: func(at Time, h Handler) (EventID, error) {
			if calls++; calls%2 == 0 {
				return k.Schedule(at, "new", h)
			}
			return k.ScheduleFunc(at, "new", func(uint64) { h() }, 0)
		},
		after: func(d Duration, h Handler) (EventID, error) { return k.After(d, "new", h) },
	}
}

// handler names a new event and returns what it does when it runs: log its
// name and, for every third name, schedule a child at the current instant
// (which must run after every event already due then) and, for every
// fifth, one a little later.
func (tw *twin) handler() Handler {
	tw.names++
	name := tw.names
	return func() {
		tw.log = append(tw.log, name)
		if name%3 == 0 {
			_, _ = tw.schedule(tw.now(), tw.handler())
		}
		if name%5 == 0 {
			_, _ = tw.after(1, tw.handler())
		}
	}
}

// TestKernelMatchesReference drives the kernel and referenceKernel through
// the same seeded interleavings of Schedule, After, Cancel, Step, Run and
// Stop, with timestamps drawn from a handful of values so ties are the
// rule, cancels aimed at pending, run and cancelled events alike, and
// handlers that schedule at Now. After every operation both must agree on
// the result, the handlers run so far, Pending and Now.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref, got := referenceTwin(), kernelTwin()
		var ids []EventID
		for op := 0; op < 120; op++ {
			var what string
			var a, b any
			switch r := rng.Intn(100); {
			case r < 35:
				at := ref.now() + Time(rng.Intn(4)) - Time(rng.Intn(2)) // sometimes in the past
				what = fmt.Sprintf("schedule at %v", at)
				ia, ea := ref.schedule(at, ref.handler())
				ib, eb := got.schedule(at, got.handler())
				a, b = fmt.Sprint(ia, ea == nil), fmt.Sprint(ib, eb == nil)
				if ea == nil {
					ids = append(ids, ia)
				}
			case r < 45:
				d := Duration(rng.Intn(3)) - Duration(rng.Intn(2)) // sometimes negative
				what = fmt.Sprintf("after %v", d)
				ia, ea := ref.after(d, ref.handler())
				ib, eb := got.after(d, got.handler())
				a, b = fmt.Sprint(ia, ea == nil), fmt.Sprint(ib, eb == nil)
				if ea == nil {
					ids = append(ids, ia)
				}
			case r < 65 && len(ids) > 0:
				id := ids[rng.Intn(len(ids))]
				if rng.Intn(10) == 0 {
					id = EventID(rng.Intn(3)) // 0 or an ID that may never have been issued
				}
				what = fmt.Sprintf("cancel %d", id)
				a, b = ref.cancel(id), got.cancel(id)
			case r < 80:
				what = "step"
				a, b = ref.step(), got.step()
			case r < 98 || op < 100: // a stop ends the interesting part
				until := ref.now() + Time(rng.Intn(3))
				what = fmt.Sprintf("run until %v", until)
				a, b = ref.run(until), got.run(until)
			default:
				what = "stop"
				ref.stop()
				got.stop()
			}
			if a != b || !slices.Equal(ref.log, got.log) || ref.pending() != got.pending() || ref.now() != got.now() {
				t.Fatalf("seed %d op %d (%s): result %v, reference %v\nran %v\nref %v\npending %d, reference %d; now %v, reference %v",
					seed, op, what, b, a, got.log, ref.log, got.pending(), ref.pending(), got.now(), ref.now())
			}
		}
		if a, b := ref.run(Infinity), got.run(Infinity); a != b || !slices.Equal(ref.log, got.log) {
			t.Fatalf("seed %d drain: ran %d %v, reference %d %v", seed, b, got.log, a, ref.log)
		}
	}
}
