//go:build !race

package agent

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// Idle cost is a live-heap measurement, which the race detector's
// bookkeeping would swamp, so this file builds without -race only.

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// slots reports how many envelopes each lane has room for right now.
func (m *mailbox) slots() (normal, high int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.normal.buf), len(m.high.buf)
}

func boxOf(t *testing.T, p *Platform, id ID) *mailbox {
	t.Helper()
	p.mu.RLock()
	defer p.mu.RUnlock()
	reg, ok := p.agents[id]
	if !ok || reg.box == nil {
		t.Fatalf("no mailbox for %q", id)
	}
	return reg.box
}

// TestIdleAgentHoldsNoSlots: a registered agent that is sent nothing holds
// no mailbox slots; a lane grows to exactly its cap under a burst; and a
// handled envelope does not stay reachable from its lane.
func TestIdleAgentHoldsNoSlots(t *testing.T) {
	noop := HandlerFunc(func(Envelope, *Context) {})

	t.Run("idle", func(t *testing.T) {
		// The parent commit's two pre-allocated lane channels alone held
		// 11.8 KB of an idle agent's 13.8 KB.
		const agents, budget = 1000, 2500
		p := NewPlatform("idle")
		defer p.Close()
		before := liveHeap()
		for i := 0; i < agents; i++ {
			if err := p.Register(ID("idle-"+strconv.Itoa(i)), noop, Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
		}
		per := (liveHeap() - before) / agents
		runtime.KeepAlive(p)
		t.Logf("%d B of live heap per idle agent", per)
		if per > budget {
			t.Fatalf("an idle agent holds %d B of live heap, budget %d", per, budget)
		}
		if n, h := boxOf(t, p, "idle-0").slots(); n+h != 0 {
			t.Fatalf("idle agent holds %d normal and %d priority slots", n, h)
		}
	})

	for _, tc := range []struct {
		lane   int
		policy MailboxPolicy
	}{{DefaultMailboxCapacity, DropNewest}, {40, DropOldest}} {
		t.Run("burst-"+strconv.Itoa(tc.lane)+"-"+tc.policy.String(), func(t *testing.T) {
			p := NewPlatform("burst")
			p.Mailbox = MailboxOptions{Capacity: tc.lane, Policy: tc.policy}
			defer p.Close()
			h := newGatedHandler()
			if err := p.Register("slow", h, Attributes{}, nil); err != nil {
				t.Fatal(err)
			}
			box := boxOf(t, p, "slow")
			for i := 0; i <= tc.lane; i++ {
				if err := sendTo(t, p, "slow", "x-data"); err != nil {
					t.Fatalf("send %d: %v", i+1, err)
				}
				if i == 0 {
					<-h.first
				}
			}
			if n, hi := box.slots(); n != tc.lane || hi != 0 {
				t.Fatalf("after a burst of %d the lanes hold %d normal and %d priority slots, want %d and 0",
					tc.lane, n, hi, tc.lane)
			}
			err := sendTo(t, p, "slow", "x-data")
			switch tc.policy {
			case DropNewest:
				if !errors.Is(err, ErrMailboxFull) {
					t.Fatalf("send past the cap: err = %v, want ErrMailboxFull", err)
				}
			case DropOldest:
				if err != nil || p.DeliveryStats().Reasons[DropShedOldest] != 1 {
					t.Fatalf("send past the cap: err = %v, stats %+v; want the oldest shed", err, p.DeliveryStats())
				}
			}
			if n, _ := box.slots(); n != tc.lane {
				t.Fatalf("lane grew past its cap to %d slots", n)
			}
			close(h.gate)
			h.waitFor(t, 1+tc.lane)
		})
	}

	t.Run("zeroed", func(t *testing.T) {
		p := NewPlatform("zeroed")
		defer p.Close()
		handled := make(chan struct{}, 8)
		if err := p.Register("sink", HandlerFunc(func(Envelope, *Context) { handled <- struct{}{} }), Attributes{}, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := sendTo(t, p, "sink", "x-data"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			select {
			case <-handled:
			case <-time.After(5 * time.Second):
				t.Fatal("envelope not handled")
			}
		}
		box := boxOf(t, p, "sink")
		box.mu.Lock()
		defer box.mu.Unlock()
		if len(box.normal.buf) == 0 {
			t.Fatal("the lane never allocated")
		}
		for i, env := range box.normal.buf {
			if env.Seq != 0 || env.Content != nil {
				t.Fatalf("slot %d still holds handled envelope %d", i, env.Seq)
			}
		}
	})
}
