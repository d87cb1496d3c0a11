package agent

import (
	"fmt"
	"time"
)

// Contract-net negotiation: the paper requires agents that "negotiate with
// other agents about appropriate mediating interfaces or performance
// commitments". This file implements the classic contract-net protocol on
// top of the envelope layer: an initiator issues a call-for-proposals to
// candidate contractors, collects bids, awards the task to the best bid,
// and informs the losers.

// CFP is a call-for-proposals body.
type CFP struct {
	// Task describes the work being tendered.
	Task string `json:"task"`
	// Payload carries task-specific parameters.
	Payload map[string]string `json:"payload,omitempty"`
}

// Proposal is a contractor's bid.
type Proposal struct {
	// Willing is false for an explicit refusal.
	Willing bool `json:"willing"`
	// Cost is the bid (lower wins): the "performance commitment".
	Cost float64 `json:"cost"`
	// Note carries free-form terms.
	Note string `json:"note,omitempty"`
}

// Award is sent to the winning contractor; losers get a "reject" envelope.
type Award struct {
	Task string `json:"task"`
}

// Contract-net performatives.
const (
	PerformativeCFP     = "cfp"
	PerformativePropose = "propose"
	PerformativeRefuse  = "refuse"
	PerformativeAward   = "accept-proposal"
	PerformativeReject  = "reject-proposal"
)

// ContractNetResult reports a completed negotiation.
type ContractNetResult struct {
	// Winner is the awarded contractor ("" when nobody bid).
	Winner ID
	// Cost is the winning bid.
	Cost float64
	// Proposals counts bids received (refusals excluded).
	Proposals int
	// Refusals counts explicit refusals.
	Refusals int
}

// Bidder adapts a cost function into a contract-net contractor handler:
// on a CFP it computes a bid (or refuses when the returned cost is
// negative), and on an award it runs perform.
func Bidder(bid func(CFP) float64, perform func(Award)) Handler {
	return HandlerFunc(func(env Envelope, ctx *Context) {
		switch env.Performative {
		case PerformativeCFP:
			var cfp CFP
			if err := env.Decode(&cfp); err != nil {
				return
			}
			cost := bid(cfp)
			var reply Envelope
			var err error
			if cost < 0 {
				reply, err = env.Reply(PerformativeRefuse, Proposal{Willing: false})
			} else {
				reply, err = env.Reply(PerformativePropose, Proposal{Willing: true, Cost: cost})
			}
			if err == nil {
				_ = ctx.Send(reply)
			}
		case PerformativeAward:
			var aw Award
			if err := env.Decode(&aw); err != nil {
				return
			}
			if perform != nil {
				perform(aw)
			}
		}
	})
}

// ContractNet runs one negotiation round from an ephemeral initiator: CFP
// to every contractor, wait out the deadline, award the cheapest bid. It
// returns ErrCallTimeout-free results: silence from a contractor simply
// means no bid.
func ContractNet(p *Platform, contractors []ID, cfp CFP, deadline time.Duration) (ContractNetResult, error) {
	if len(contractors) == 0 {
		return ContractNetResult{}, fmt.Errorf("agent: contract net needs contractors")
	}
	if deadline <= 0 {
		deadline = time.Second
	}
	in, err := p.openInbox(len(contractors) * 2)
	if err != nil {
		return ContractNetResult{}, err
	}
	defer in.close()

	// CFPs ride the retry layer: a contractor whose mailbox is briefly
	// full (or whose link is mid-reconnect) still gets tendered. Each keeps
	// its sequence number so answers correlate to this round.
	cfpPolicy := RetryPolicy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	var tendered []uint64
	for _, c := range contractors {
		env, err := NewEnvelope(in.id, c, PerformativeCFP, "contract-net", cfp)
		if err != nil {
			continue
		}
		env.Seq = p.seq.next()
		if SendRetry(p, env, deadline/2, cfpPolicy) == nil {
			tendered = append(tendered, env.Seq)
		}
	}
	if len(tendered) == 0 {
		return ContractNetResult{}, fmt.Errorf("agent: no contractor reachable")
	}

	expired := p.clock().After(deadline)
	res := ContractNetResult{}
	for res.Proposals+res.Refusals < len(tendered) {
		answer, ok := in.await(tendered, expired)
		if !ok {
			break
		}
		switch answer.Performative {
		case PerformativePropose:
			var prop Proposal
			if err := answer.Decode(&prop); err != nil || !prop.Willing {
				continue
			}
			res.Proposals++
			if res.Winner == "" || prop.Cost < res.Cost {
				res.Winner, res.Cost = answer.From, prop.Cost
			}
		case PerformativeRefuse:
			res.Refusals++
		}
	}
	if res.Winner == "" {
		return res, nil // nobody bid
	}

	// The award is the one envelope that must not be lost to a transient
	// full mailbox — the winner would never perform.
	award, err := NewEnvelope(in.id, res.Winner, PerformativeAward, "contract-net", Award{Task: cfp.Task})
	if err == nil {
		_ = SendRetry(p, award, deadline, cfpPolicy)
	}
	for _, c := range contractors {
		if c == res.Winner {
			continue
		}
		rej, err := NewEnvelope(in.id, c, PerformativeReject, "contract-net", Award{Task: cfp.Task})
		if err == nil {
			_ = p.Send(rej)
		}
	}
	return res, nil
}
