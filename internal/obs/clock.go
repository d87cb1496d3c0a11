package obs

import (
	"sort"
	"sync"
	"time"
)

// Clock abstracts time for code that sleeps or sets deadlines, so the
// retry/reconnect machinery can run against a deterministic fake in
// tests instead of burning wall-clock seconds.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	After(d time.Duration) <-chan time.Time
}

// RealClock delegates to the time package.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Real is the process-wide wall clock.
var Real Clock = RealClock{}

// FakeClock is a manually advanced clock. Goroutines blocked in Sleep
// or on an After channel wake only when Advance moves the clock past
// their deadline. A FakeClock with AutoAdvance started behaves like an
// infinitely fast world: every new waiter is immediately released by
// jumping the clock to its deadline, in deadline order.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
	newWait chan struct{} // signalled (non-blocking) when a waiter parks
	stop    chan struct{}
}

type fakeWaiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewFakeClock starts the fake at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{
		now:     time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC),
		newWait: make(chan struct{}, 1),
	}
}

func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *FakeClock) Sleep(d time.Duration) { <-f.After(d) }

func (f *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	f.mu.Lock()
	if d <= 0 {
		//lint:ignore blockheld ch is freshly made with capacity 1; the send cannot block
		ch <- f.now
		f.mu.Unlock()
		return ch
	}
	f.waiters = append(f.waiters, &fakeWaiter{deadline: f.now.Add(d), ch: ch})
	f.mu.Unlock()
	select {
	case f.newWait <- struct{}{}:
	default:
	}
	return ch
}

// Advance moves the clock forward, releasing every waiter whose
// deadline is reached.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	//lint:ignore blockheld every waiter channel is buffered(1) and fired at most once; the sends cannot block
	f.fireLocked()
	f.mu.Unlock()
}

func (f *FakeClock) fireLocked() {
	kept := f.waiters[:0]
	for _, w := range f.waiters {
		if !w.deadline.After(f.now) {
			w.ch <- f.now
		} else {
			kept = append(kept, w)
		}
	}
	f.waiters = kept
}

// Waiters reports how many goroutines are currently parked on the clock.
//
//lint:ignore deadcode test seam used by the agent, durable, obs, supervise and telemetry tests
func (f *FakeClock) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// AutoAdvance spawns a goroutine that, whenever at least one waiter is
// parked, jumps the clock to the earliest pending deadline. This lets
// sleep-heavy code (retry backoff, attempt timers) run at full speed
// while preserving deadline ordering. Call the returned stop function
// when done.
//
//lint:ignore deadcode test seam used by the agent, core, obs and supervise tests
func (f *FakeClock) AutoAdvance() (stop func()) {
	f.mu.Lock()
	if f.stop != nil {
		f.mu.Unlock()
		return func() {}
	}
	done := make(chan struct{})
	f.stop = done
	f.mu.Unlock()

	go func() {
		for {
			select {
			case <-done:
				return
			case <-f.newWait:
			}
			for {
				f.mu.Lock()
				if len(f.waiters) == 0 {
					f.mu.Unlock()
					break
				}
				sort.Slice(f.waiters, func(i, j int) bool {
					return f.waiters[i].deadline.Before(f.waiters[j].deadline)
				})
				f.now = f.waiters[0].deadline
				f.fireLocked()
				f.mu.Unlock()
				// Give the released goroutine a moment to park its next
				// sleep before we check for more waiters.
				select {
				case <-done:
					return
				case <-f.newWait:
				case <-time.After(time.Millisecond):
				}
			}
		}
	}()
	return func() {
		f.mu.Lock()
		if f.stop == done {
			f.stop = nil
		}
		f.mu.Unlock()
		close(done)
	}
}
