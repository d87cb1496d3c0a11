package faultinject

import (
	"sync"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
)

// countDeputy records delivered envelopes.
type countDeputy struct {
	mu   sync.Mutex
	envs []agent.Envelope
}

func (c *countDeputy) Deliver(env agent.Envelope) error {
	c.mu.Lock()
	c.envs = append(c.envs, env)
	c.mu.Unlock()
	return nil
}

func (c *countDeputy) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.envs)
}

func env(i int) agent.Envelope {
	return agent.Envelope{Seq: uint64(i + 1), From: "a", To: "b", Performative: "inform"}
}

func TestSeededDropIsDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		in := New(Config{Seed: seed, DropProb: 0.3})
		sink := &countDeputy{}
		d := in.WrapDeputy(sink)
		out := make([]bool, 200)
		for i := range out {
			before := sink.count()
			if err := d.Deliver(env(i)); err != nil {
				t.Fatal(err)
			}
			out[i] = sink.count() > before
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at envelope %d", i)
		}
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestDropRateNearConfigured(t *testing.T) {
	in := New(Config{Seed: 1, DropProb: 0.1})
	sink := &countDeputy{}
	d := in.WrapDeputy(sink)
	const n = 2000
	for i := 0; i < n; i++ {
		_ = d.Deliver(env(i))
	}
	st := in.Stats()
	if st.Seen != n {
		t.Fatalf("seen = %d, want %d", st.Seen, n)
	}
	if st.Dropped < n/20 || st.Dropped > n/5 {
		t.Fatalf("dropped = %d of %d, want ~10%%", st.Dropped, n)
	}
	if st.Passed != uint64(sink.count()) {
		t.Fatalf("passed = %d, delivered = %d", st.Passed, sink.count())
	}
	if st.Passed+st.Dropped != st.Seen {
		t.Fatalf("stats don't add up: %+v", st)
	}
}

func TestDropEveryN(t *testing.T) {
	in := New(Config{DropEveryN: 3})
	sink := &countDeputy{}
	d := in.WrapDeputy(sink)
	for i := 0; i < 9; i++ {
		_ = d.Deliver(env(i))
	}
	if got := in.Stats().Dropped; got != 3 {
		t.Fatalf("dropped = %d, want exactly 3", got)
	}
	if sink.count() != 6 {
		t.Fatalf("delivered = %d, want 6", sink.count())
	}
}

func TestPartitionDropsEverythingUntilHealed(t *testing.T) {
	in := New(Config{})
	sink := &countDeputy{}
	d := in.WrapDeputy(sink)
	in.SetPartitioned(true)
	for i := 0; i < 5; i++ {
		_ = d.Deliver(env(i))
	}
	if sink.count() != 0 {
		t.Fatalf("delivered %d during partition", sink.count())
	}
	in.SetPartitioned(false)
	_ = d.Deliver(env(5))
	if sink.count() != 1 {
		t.Fatalf("delivered = %d after heal", sink.count())
	}
	if st := in.Stats(); st.Dropped != 5 {
		t.Fatalf("dropped = %d, want 5", st.Dropped)
	}
}

func TestDuplication(t *testing.T) {
	in := New(Config{DupProb: 1})
	sink := &countDeputy{}
	d := in.WrapDeputy(sink)
	for i := 0; i < 4; i++ {
		_ = d.Deliver(env(i))
	}
	if sink.count() != 8 {
		t.Fatalf("delivered = %d, want every envelope twice", sink.count())
	}
	if st := in.Stats(); st.Duplicated != 4 {
		t.Fatalf("duplicated = %d", st.Duplicated)
	}
}

func TestLatencyDelaysWithoutBlockingSender(t *testing.T) {
	in := New(Config{Latency: 50 * time.Millisecond})
	sink := &countDeputy{}
	d := in.WrapDeputy(sink)
	start := time.Now()
	_ = d.Deliver(env(0))
	if since := time.Since(start); since > 20*time.Millisecond {
		t.Fatalf("Deliver blocked %v; latency must be asynchronous", since)
	}
	if sink.count() != 0 {
		t.Fatal("envelope arrived before the injected latency")
	}
	deadline := time.Now().Add(2 * time.Second)
	for sink.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("delayed envelope never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestWrapRouteSwallowsDrops(t *testing.T) {
	in := New(Config{DropEveryN: 2})
	var forwarded int
	r := in.WrapRoute(func(e agent.Envelope) bool {
		forwarded++
		return true
	})
	for i := 0; i < 6; i++ {
		if !r(env(i)) {
			t.Fatalf("faulted route must still report accepted (envelope %d)", i)
		}
	}
	if forwarded != 3 {
		t.Fatalf("forwarded = %d, want 3", forwarded)
	}
}
