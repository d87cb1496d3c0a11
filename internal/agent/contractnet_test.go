package agent

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestContractNetAwardsCheapestBid(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()

	var mu sync.Mutex
	performed := map[ID]int{}
	makeBidder := func(id ID, cost float64) {
		t.Helper()
		err := p.Register(id, Bidder(
			func(CFP) float64 { return cost },
			func(Award) {
				mu.Lock()
				performed[id]++
				mu.Unlock()
			},
		), Attributes{Agent: map[string]string{AttrRole: RoleProvider}}, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	makeBidder("expensive", 10)
	makeBidder("cheap", 2)
	makeBidder("middling", 5)

	res, err := ContractNet(p, []ID{"expensive", "cheap", "middling"},
		CFP{Task: "solve-pde"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "cheap" || res.Cost != 2 {
		t.Fatalf("result = %+v, want cheap@2", res)
	}
	if res.Proposals != 3 {
		t.Fatalf("proposals = %d", res.Proposals)
	}
	// The winner (and only the winner) performs the task.
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		done := performed["cheap"] == 1
		mu.Unlock()
		if done {
			break
		}
		select {
		case <-deadline:
			t.Fatal("winner never performed the task")
		case <-time.After(5 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if performed["expensive"] != 0 || performed["middling"] != 0 {
		t.Fatalf("losers performed: %v", performed)
	}
}

// TestContractNetWiderThanAMailbox: the initiator's inbox is sized by the
// round (two slots per contractor), not by the platform's mailbox depth, so
// a round wider than DefaultMailboxCapacity still hears every bid.
func TestContractNetWiderThanAMailbox(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	const n = DefaultMailboxCapacity + 16
	contractors := make([]ID, n)
	for i := range contractors {
		contractors[i] = ID(fmt.Sprintf("bidder-%d", i))
		cost := float64(10 + (i+n/2)%n) // cheapest (10) is bidder-n/2
		if err := p.Register(contractors[i], Bidder(func(CFP) float64 { return cost }, nil), Attributes{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ContractNet(p, contractors, CFP{Task: "t"}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := contractors[n/2]; res.Winner != want || res.Cost != 10 || res.Proposals != n {
		t.Fatalf("result = %+v, want %s@10 from %d proposals", res, want, n)
	}
	if st := p.DeliveryStats(); st.Shed != 0 || st.DeadLettered != 0 {
		t.Fatalf("a bid was shed or dropped: %+v", st)
	}
}

func TestContractNetRefusals(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if err := p.Register("refuser", Bidder(func(CFP) float64 { return -1 }, nil), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("willing", Bidder(func(CFP) float64 { return 7 }, nil), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ContractNet(p, []ID{"refuser", "willing"}, CFP{Task: "t"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "willing" || res.Refusals != 1 || res.Proposals != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestContractNetNobodyBids(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if err := p.Register("r1", Bidder(func(CFP) float64 { return -1 }, nil), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	res, err := ContractNet(p, []ID{"r1"}, CFP{Task: "t"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "" || res.Refusals != 1 {
		t.Fatalf("result = %+v, want no winner", res)
	}
}

func TestContractNetDeadlineWithSilentContractor(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	// One contractor never answers; the deadline must still end the round.
	if err := p.Register("silent", HandlerFunc(func(Envelope, *Context) {}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("bidder", Bidder(func(CFP) float64 { return 3 }, nil), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := ContractNet(p, []ID{"silent", "bidder"}, CFP{Task: "t"}, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "bidder" {
		t.Fatalf("result = %+v", res)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("negotiation did not respect the deadline")
	}
}

func TestContractNetValidation(t *testing.T) {
	p := NewPlatform("test")
	defer p.Close()
	if _, err := ContractNet(p, nil, CFP{}, time.Second); err == nil {
		t.Fatal("empty contractor list should fail")
	}
	if _, err := ContractNet(p, []ID{"ghost"}, CFP{}, time.Second); err == nil {
		t.Fatal("unreachable contractors should fail")
	}
}
