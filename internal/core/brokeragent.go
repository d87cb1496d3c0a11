package core

import (
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/ontology"
)

// Broker-agent wire types: Ronin "has the notion of service discovery
// (agent discovery) built into the architecture" — this agent exposes the
// runtime's semantic broker to any agent on the platform (or across a TCP
// link).

// AdvertiseRequest registers a service profile under a lease.
type AdvertiseRequest struct {
	Profile    ontology.Profile `json:"profile"`
	TTLSeconds float64          `json:"ttlSeconds"`
}

// AdvertiseReply acknowledges a registration.
type AdvertiseReply struct {
	OK      bool    `json:"ok"`
	Error   string  `json:"error,omitempty"`
	LeaseID uint64  `json:"leaseId,omitempty"`
	Expires float64 `json:"expiresUnix,omitempty"`
}

// DiscoverRequest runs a semantic lookup.
type DiscoverRequest struct {
	Request ontology.Request `json:"request"`
	// Max bounds the returned matches (0 = all).
	Max int `json:"max,omitempty"`
}

// DiscoveredService is one match on the wire.
type DiscoveredService struct {
	Profile ontology.Profile `json:"profile"`
	Score   float64          `json:"score"`
}

// DiscoverReply carries the ranked matches.
type DiscoverReply struct {
	OK      bool                `json:"ok"`
	Error   string              `json:"error,omitempty"`
	Matches []DiscoveredService `json:"matches"`
}

// DeregisterRequest withdraws an advertisement by name.
type DeregisterRequest struct {
	Name string `json:"name"`
}

// DiscoveryOntology is the envelope ontology for broker traffic.
const DiscoveryOntology = "pgrid-discovery-v1"

// BrokerAgentID is the conventional ID of a runtime's broker agent.
const BrokerAgentID agent.ID = "broker-agent"

// RegisterBrokerAgent hosts a discovery broker agent for this runtime.
// Performatives: "advertise" (AdvertiseRequest → AdvertiseReply),
// "discover" (DiscoverRequest → DiscoverReply), "deregister"
// (DeregisterRequest → AdvertiseReply).
func (rt *Runtime) RegisterBrokerAgent(p *agent.Platform) error {
	attrs := agent.Attributes{
		Agent: map[string]string{agent.AttrRole: agent.RoleBroker},
	}
	return p.Register(BrokerAgentID, rt.wrapHandler(agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var reply any
		performative := "inform"
		switch env.Performative {
		case "advertise":
			var req AdvertiseRequest
			if err := env.Decode(&req); err != nil {
				reply, performative = AdvertiseReply{Error: err.Error()}, "failure"
				break
			}
			prof := req.Profile // own copy; the registry keeps the pointer
			if err := prof.Validate(rt.Onto); err != nil {
				reply, performative = AdvertiseReply{Error: err.Error()}, "failure"
				break
			}
			ttl := time.Duration(req.TTLSeconds * float64(time.Second))
			lease, err := rt.Broker.Reg.Register(&prof, ttl)
			if err != nil {
				reply, performative = AdvertiseReply{Error: err.Error()}, "failure"
				break
			}
			reply = AdvertiseReply{OK: true, LeaseID: lease.ID, Expires: float64(lease.Expires.Unix())}
		case "discover":
			var req DiscoverRequest
			if err := env.Decode(&req); err != nil {
				reply, performative = DiscoverReply{Error: err.Error()}, "failure"
				break
			}
			// Max rides in the request so a ranking matcher selects the
			// best Max instead of sorting every match; the cut below
			// still holds for a matcher that ignores it.
			req.Request.Max = req.Max
			matches := rt.Broker.Lookup(req.Request, req.Max)
			if req.Max > 0 && len(matches) > req.Max {
				matches = matches[:req.Max]
			}
			out := DiscoverReply{OK: true}
			for _, m := range matches {
				out.Matches = append(out.Matches, DiscoveredService{Profile: *m.Profile, Score: m.Score})
			}
			reply = out
		case "deregister":
			var req DeregisterRequest
			if err := env.Decode(&req); err != nil {
				reply, performative = AdvertiseReply{Error: err.Error()}, "failure"
				break
			}
			rt.Broker.Reg.Deregister(req.Name)
			reply = AdvertiseReply{OK: true}
		default:
			reply, performative = AdvertiseReply{Error: "unknown performative " + env.Performative}, "failure"
		}
		out, err := env.Reply(performative, reply)
		if err != nil {
			return
		}
		out.From = ctx.Self
		_ = agent.SendRetry(ctx.Platform, out, 2*time.Second, replyPolicy)
	})), attrs, rt.DeputyWrap)
}

// Discover asks a platform's broker agent for service matches through the
// retry layer. Discovery is a pure lookup, so replayed requests are
// harmless.
func Discover(p *agent.Platform, req ontology.Request, max int, timeout time.Duration, policy agent.RetryPolicy) (DiscoverReply, error) {
	env, err := agent.CallRetry(p, BrokerAgentID, "discover", DiscoveryOntology,
		DiscoverRequest{Request: req, Max: max}, timeout, policy)
	if err != nil {
		return DiscoverReply{}, err
	}
	var reply DiscoverReply
	if err := env.Decode(&reply); err != nil {
		return DiscoverReply{}, err
	}
	return reply, nil
}

// Advertise registers a service profile with a platform's broker agent
// through the retry layer. Re-registration under the same name renews the
// lease, so a duplicated request is idempotent.
func Advertise(p *agent.Platform, profile ontology.Profile, ttl time.Duration, timeout time.Duration, policy agent.RetryPolicy) (AdvertiseReply, error) {
	env, err := agent.CallRetry(p, BrokerAgentID, "advertise", DiscoveryOntology,
		AdvertiseRequest{Profile: profile, TTLSeconds: ttl.Seconds()}, timeout, policy)
	if err != nil {
		return AdvertiseReply{}, err
	}
	var reply AdvertiseReply
	if err := env.Decode(&reply); err != nil {
		return AdvertiseReply{}, err
	}
	return reply, nil
}
