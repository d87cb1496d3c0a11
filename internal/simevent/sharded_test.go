package simevent

import (
	"fmt"
	"testing"
)

// shardTrace runs a small cross-posting workload on a ShardedKernel and
// returns the deterministic execution trace of shard 0 plus the total
// handler count. Each shard ticks every 1.0 virtual seconds and posts a
// report to shard 0 every other tick; shard 0 appends the arrival order
// to the trace. Identical traces across worker counts prove the barrier
// merge is scheduling-independent.
func shardTrace(t *testing.T, shards, workers int, until Time) (string, uint64) {
	t.Helper()
	sk := NewSharded(shards, 1.0, workers)
	trace := ""
	for i := 0; i < shards; i++ {
		i := i
		ticks := 0
		tk := NewTicker(sk.Shard(i), 1.0, fmt.Sprintf("tick-%d", i), func(now Time) {
			ticks++
			if ticks%2 == 0 {
				n := ticks
				if err := sk.Post(i, 0, now, "report", func() {
					trace += fmt.Sprintf("[s%d t%d @%g]", i, n, sk.Shard(0).Now())
				}); err != nil {
					t.Errorf("post: %v", err)
				}
			}
		})
		if err := tk.Start(); err != nil {
			t.Fatalf("start ticker %d: %v", i, err)
		}
	}
	n, err := sk.Run(until)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return trace, n
}

func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	want, wantN := shardTrace(t, 7, 1, 10)
	if want == "" {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 4, 8} {
		got, gotN := shardTrace(t, 7, workers, 10)
		if got != want {
			t.Fatalf("workers=%d trace diverged:\n got %s\nwant %s", workers, got, want)
		}
		if gotN != wantN {
			t.Fatalf("workers=%d executed %d, want %d", workers, gotN, wantN)
		}
	}
}

func TestShardedCrossPostDeferredToBarrier(t *testing.T) {
	sk := NewSharded(2, 1.0, 1)
	var at Time = -1
	if _, err := sk.Shard(0).Schedule(0.25, "origin", func() {
		// Posted mid-window for "now": must not run until the barrier.
		_ = sk.Post(0, 1, sk.Shard(0).Now(), "hop", func() {
			at = sk.Shard(1).Now()
		})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Run(3); err != nil {
		t.Fatal(err)
	}
	if at != 1.0 {
		t.Fatalf("cross post ran at %g, want deferred to window barrier 1.0", at)
	}
}

func TestShardedPostBounds(t *testing.T) {
	sk := NewSharded(2, 1.0, 1)
	if err := sk.Post(0, 5, 0, "oob", func() {}); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if err := sk.Post(-1, 0, 0, "oob", func() {}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestShardedRunStopsAtHorizon(t *testing.T) {
	sk := NewSharded(3, 0.5, 2)
	fires := 0
	tk := NewTicker(sk.Shard(1), 0.5, "tick", func(Time) { fires++ })
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Run(2.0); err != nil {
		t.Fatal(err)
	}
	if fires != 4 {
		t.Fatalf("fires = %d, want 4 at horizon 2.0 with period 0.5", fires)
	}
	if sk.Now() != 2.0 {
		t.Fatalf("lockstep clock = %g, want 2.0", sk.Now())
	}
	// Resume: the kernel picks up where it stopped.
	if _, err := sk.Run(3.0); err != nil {
		t.Fatal(err)
	}
	if fires != 6 {
		t.Fatalf("fires = %d after resume, want 6", fires)
	}
}

func TestShardedConstructorValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero shards", func() { NewSharded(0, 10, 1) })
	mustPanic("zero window", func() { NewSharded(4, 0, 1) })

	sk := NewSharded(4, 10, 0) // workers <= 0 defaults to GOMAXPROCS
	if len(sk.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(sk.shards))
	}
	if sk.Executed() != 0 {
		t.Fatalf("Executed() = %d before any run", sk.Executed())
	}
}
