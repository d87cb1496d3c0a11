package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/sensornet"
	"pervasivegrid/internal/supervise"
)

// nodeName is the daemon's default -name.
const nodeName = "pgridd"

// node is one in-process pervasive-grid node, wired the way cmd/pgridd
// wires it by default.
type node struct {
	rt       *core.Runtime
	platform *agent.Platform
	gw       *agent.Gateway
	// store and dir are set only when the workload journals the registry.
	store *durable.Store
	dir   string
	// seeded is the registry population registered at set-up, kept so
	// workloads can renew entries with identical content.
	seeded []*ontology.Profile
}

// nodeSpec is what a workload asks of its node beyond pgridd's defaults.
type nodeSpec struct {
	// profiles seeds the registry with this many extra advertisements.
	profiles int
	// walDir opens a durable store there and journals the registry.
	walDir string
	// providers hosts one provider agent per advertised service.
	providers bool
	// echo hosts the benchmark's own echo agent.
	echo bool
}

// runtimeConfig is pgridd's deployment made reproducible: no sensor noise,
// a fire that neither grows nor spreads, and batteries that outlast the
// run. With the default 2 J batteries the sensors die after about two
// thousand aggregate queries and every later query fails.
func runtimeConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Rows, cfg.Cols = 10, 10
	cfg.Noise = 0
	cfg.Net.InitialEnergy = 1e9
	field := sensornet.NewTemperatureField(20)
	field.Ignite(sensornet.Hotspot{
		Center: sensornet.Position{X: cfg.Net.Width / 2, Y: cfg.Net.Height / 2},
		Peak:   500, Radius: 15, Start: -1,
	})
	cfg.Field = field
	return cfg
}

// newRuntime builds the runtime half of a node; the query workload also
// uses it alone, as the twin that computes reference answers.
func newRuntime() (*core.Runtime, error) {
	rt, err := core.New(runtimeConfig())
	if err != nil {
		return nil, err
	}
	rt.AssignRooms(2, 2)
	if err := rt.AdvertiseDefaults(); err != nil {
		return nil, fmt.Errorf("advertise: %w", err)
	}
	return rt, nil
}

// newNode builds a node and starts its gateway on a loopback port. tr, when
// not nil, installs the span hooks before any agent registers.
func newNode(spec nodeSpec, seed int64, tr *tracer) (*node, error) {
	rt, err := newRuntime()
	if err != nil {
		return nil, err
	}
	n := &node{rt: rt, dir: spec.walDir}
	n.seeded = seedProfiles(rand.New(rand.NewSource(seed)), spec.profiles)
	for _, p := range n.seeded {
		if _, err := rt.Broker.Reg.Register(p, core.DefaultLeaseTTL); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		rt.DeputyWrap = tr.wrapDeputy
		rt.HandlerWrap = tr.wrapHandler
		rt.Broker.Matcher = &tracedMatcher{inner: rt.Broker.Matcher, tr: tr}
	}

	p := agent.NewPlatform(nodeName)
	n.platform = p
	p.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{})
	p.OnAgentDown = func(id agent.ID, err error) {
		fmt.Fprintf(os.Stderr, "bench: agent %q exhausted its restart budget: %v\n", id, err)
	}
	if spec.walDir != "" {
		n.store, err = durable.Open(spec.walDir, durable.Options{
			Sync: durable.SyncInterval, SyncEvery: 50 * time.Millisecond,
		})
		if err != nil {
			n.close()
			return nil, fmt.Errorf("durable open: %w", err)
		}
		n.store.AttachMetrics(rt.Metrics)
		n.store.AttachPlatform(p)
		n.store.AttachRegistry(rt.Broker.Reg)
	}
	p.Tracer = obs.NewTracer(4096)
	p.Tracer.SetSampler(obs.NewSampler(1))
	p.Tracer.AttachMetrics(rt.Metrics)
	p.Events = obs.NewEventLog(4096)
	p.Events.AttachMetrics(rt.Metrics)

	for _, register := range []func(*agent.Platform) error{
		rt.RegisterQueryAgent, rt.RegisterBrokerAgent, rt.RegisterSolverAgents,
	} {
		if err := register(p); err != nil {
			n.close()
			return nil, err
		}
	}
	if spec.providers {
		if _, err := rt.RegisterProviderAgents(p); err != nil {
			n.close()
			return nil, fmt.Errorf("providers: %w", err)
		}
	}
	if spec.echo {
		if err := registerEcho(p, tr); err != nil {
			n.close()
			return nil, err
		}
	}
	n.gw, err = agent.ListenAndServe(p, "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close stops the node and removes its data directory.
func (n *node) close() {
	if n.gw != nil {
		n.gw.Close()
	}
	n.platform.Close()
	if n.store != nil {
		_ = n.store.Close() // the directory is removed next
	}
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
}

// client is one handheld: its own platform and its own link to the node.
// Local workloads run on the node's platform and have no link.
type client struct {
	id       int
	platform *agent.Platform
	link     *agent.Link
	rng      *rand.Rand
	// state is the workload's per-client state (a composer, a cursor).
	state any
}

// dialClient connects a new handheld platform to the node over loopback TCP.
func dialClient(n *node, id int, seed int64) (*client, error) {
	p := agent.NewPlatform(fmt.Sprintf("handheld-%d", id))
	link, err := agent.Dial(p, n.gw.Addr(), nil)
	if err != nil {
		p.Close()
		return nil, err
	}
	return &client{id: id, platform: p, link: link, rng: clientRand(seed, id)}, nil
}

// localClient drives the node's own platform, with no TCP.
func localClient(n *node, id int, seed int64) *client {
	return &client{id: id, platform: n.platform, rng: clientRand(seed, id)}
}

func clientRand(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(id)))
}

func (c *client) close() {
	if c.link != nil {
		c.link.Close()
		c.platform.Close()
	}
}

// Echo agent: the smallest conversation the platform can carry.

const (
	echoAgentID  agent.ID = "bench-echo"
	echoOntology          = "bench-ping-v1"
)

// ping is the echo body, about twenty bytes on the wire.
type ping struct {
	Nonce uint64 `json:"n"`
}

func registerEcho(p *agent.Platform, tr *tracer) error {
	var h agent.Handler = agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var body ping
		if err := env.Decode(&body); err != nil {
			return
		}
		out, err := env.Reply("inform", body)
		if err != nil {
			return
		}
		// An undeliverable reply is dead-lettered by the platform, and the
		// run fails on any dead letter.
		_ = ctx.Send(out)
	})
	var wrap func(agent.Deputy) agent.Deputy
	if tr != nil {
		h, wrap = tr.wrapHandler(h), tr.wrapDeputy
	}
	return p.Register(echoAgentID, h, agent.Attributes{
		Agent: map[string]string{agent.AttrRole: agent.RoleProvider},
	}, wrap)
}
