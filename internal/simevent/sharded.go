package simevent

import (
	"fmt"
	"runtime"
	"sync"

	"pervasivegrid/internal/supervise"
)

// Sharded event execution: the single-threaded Kernel tops out well below
// city scale (100k+ nodes ticking), so ShardedKernel runs S independent
// kernels in lockstep windows across a bounded worker pool. Within a
// window every shard executes its own events on its own goroutine; at the
// window barrier, cross-shard posts buffered during the window are merged
// into their destination kernels in a fixed order (source shard index,
// then post order within the source). Because shards share no mutable
// state during a window and the merge order is independent of scheduling,
// a run is byte-identical for any worker count — determinism is a
// property of the seed, not of GOMAXPROCS.
//
// The contract for handlers running on shard i: touch only shard-i state,
// and reach other shards exclusively through Post. A post never executes
// in the window it was made — it is delayed to at least the next window
// boundary, which is what makes the lockstep windows conservative (no
// shard can observe another shard mid-window).

// crossPost is one buffered cross-shard event, applied at the next
// window barrier.
type crossPost struct {
	dst     int
	at      Time
	handler Handler
}

// ShardedKernel coordinates S kernels advancing in lockstep windows.
// Construct with NewSharded; the zero value is not usable.
type ShardedKernel struct {
	shards  []*Kernel
	window  Duration
	workers int
	now     Time

	// cross buffers posts per *source* shard: during a window, shard i's
	// handlers append only to cross[i], so no locking is needed and the
	// barrier merge (source order, then append order) is deterministic.
	cross [][]crossPost

	// executed sums handlers run across all shards and windows.
	executed uint64
}

// NewSharded builds a sharded kernel with the given shard count, lockstep
// window width, and worker-pool size. workers <= 0 uses GOMAXPROCS; a
// window <= 0 or shards <= 0 panics (there is no sensible default for the
// window — it is the model's synchronization horizon).
func NewSharded(shards int, window Duration, workers int) *ShardedKernel {
	if shards <= 0 {
		panic(fmt.Sprintf("simevent: NewSharded with %d shards", shards))
	}
	if window <= 0 {
		panic(fmt.Sprintf("simevent: NewSharded with window %v", window))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sk := &ShardedKernel{
		shards:  make([]*Kernel, shards),
		window:  window,
		workers: workers,
		cross:   make([][]crossPost, shards),
	}
	for i := range sk.shards {
		sk.shards[i] = NewKernel()
	}
	return sk
}

// Shard exposes one member kernel for setup-time scheduling (tickers,
// initial events). During Run, shard i's kernel must only be touched by
// handlers executing on shard i.
func (sk *ShardedKernel) Shard(i int) *Kernel { return sk.shards[i] }

// Now reports the lockstep clock: the start of the current window.
// Individual shards may be ahead of it mid-window (their local Now moves
// inside the window while they execute).
func (sk *ShardedKernel) Now() Time { return sk.now }

// Executed reports handlers run across all shards.
//
//lint:ignore deadcode test seam used by the sensornet and simevent tests
func (sk *ShardedKernel) Executed() uint64 { return sk.executed }

// Post schedules h on shard dst at absolute time at, from a handler
// currently executing on shard src. The post is buffered and applied at
// the next window barrier; if at falls inside the current window it is
// deferred to the barrier time, keeping the lockstep conservative.
// Setup-time scheduling (before Run) should use Shard(i).Schedule
// directly instead — a buffered post only lands after the first window.
func (sk *ShardedKernel) Post(src, dst int, at Time, label string, h Handler) error {
	if src < 0 || src >= len(sk.shards) || dst < 0 || dst >= len(sk.shards) {
		return fmt.Errorf("simevent: post %q from shard %d to %d of %d", label, src, dst, len(sk.shards))
	}
	sk.cross[src] = append(sk.cross[src], crossPost{dst: dst, at: at, handler: h})
	return nil
}

// pending reports whether any shard has queued events or any cross posts
// await a barrier.
func (sk *ShardedKernel) pending() bool {
	for _, k := range sk.shards {
		if k.Pending() > 0 {
			return true
		}
	}
	for _, posts := range sk.cross {
		if len(posts) > 0 {
			return true
		}
	}
	return false
}

// barrier merges the buffered cross posts into their destination kernels
// in deterministic order: source shard index, then append order. Posts
// timed inside the elapsed window are deferred to the barrier time.
func (sk *ShardedKernel) barrier() error {
	for src := range sk.cross {
		for _, post := range sk.cross[src] {
			at := post.at
			if at < sk.now {
				at = sk.now
			}
			if _, err := sk.shards[post.dst].Schedule(at, "post", post.handler); err != nil {
				return err
			}
		}
		sk.cross[src] = sk.cross[src][:0]
	}
	return nil
}

// Run executes events until the lockstep clock reaches until or every
// shard drains. It returns the number of handlers executed during this
// call. Run is not reentrant and must not race other ShardedKernel use.
func (sk *ShardedKernel) Run(until Time) (uint64, error) {
	start := sk.executed
	for sk.now < until && sk.pending() {
		end := sk.now + sk.window
		if end > until {
			end = until
		}
		sk.runWindow(end)
		sk.now = end
		if err := sk.barrier(); err != nil {
			return sk.executed - start, err
		}
	}
	return sk.executed - start, nil
}

// runWindow executes every shard up to the window end on a bounded worker
// pool. Each shard runs entirely on one worker, so shard-local state
// needs no synchronization; the WaitGroup barrier publishes all shard
// writes (including the cross buffers) back to the coordinator.
func (sk *ShardedKernel) runWindow(end Time) {
	workers := sk.workers
	if workers > len(sk.shards) {
		workers = len(sk.shards)
	}
	if workers <= 1 {
		for _, k := range sk.shards {
			sk.executed += k.Run(end)
		}
		return
	}
	idx := make(chan int, len(sk.shards))
	for i := range sk.shards {
		idx <- i
	}
	close(idx)
	counts := make([]uint64, len(sk.shards))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		supervise.Spawn("simevent-shard-worker", func() {
			defer wg.Done()
			for i := range idx {
				counts[i] = sk.shards[i].Run(end)
			}
		})
	}
	wg.Wait()
	for _, c := range counts {
		sk.executed += c
	}
}
