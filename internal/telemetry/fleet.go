package telemetry

import (
	"fmt"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/faultinject"
	"pervasivegrid/internal/obs"
)

// Fleet harness: a monitor platform with a TCP gateway plus N node
// platforms, each dialing in over a reconnecting link, running a
// reporter deputy, and carrying its own fault injector on the uplink.
// This is the deployment shape of the paper's Figure 1 (sensor gateways
// + wired nodes reporting to one observer) in miniature; pgridsim's
// -fleet demo, the chaos tests, and experiment E14 all drive it.

// FleetConfig parameterises StartFleet.
type FleetConfig struct {
	// Nodes is the fleet size (default 3).
	Nodes int
	// Interval is the report period (default 200ms).
	Interval time.Duration
	// Clock drives reporters and the monitor's staleness health machine
	// (default wall clock; tests pass obs.FakeClock).
	Clock obs.Clock
	// NodeFaults configures each node's uplink injector by index
	// (missing entries mean a clean link). Every node gets an injector
	// regardless, so partitions can be opened later.
	NodeFaults []faultinject.Config
}

// FleetNode is one simulated node.
type FleetNode struct {
	Name     string
	Platform *agent.Platform
	Link     *agent.Link
	Reporter *Reporter
	Prober   *Prober
	// Injector sits on the node's uplink route; SetPartitioned(true)
	// cuts the node off without touching TCP.
	Injector *faultinject.Injector
}

// WorkerID is the local echo agent every fleet node hosts, so nodes have
// deliverable local traffic to measure.
const WorkerID agent.ID = "worker"

// Work delivers n local envelopes to the node's worker agent, generating
// deliver-latency and throughput series for the next report.
func (n *FleetNode) Work(count int) {
	for i := 0; i < count; i++ {
		env, err := agent.NewEnvelope("workload", WorkerID, "inform", "fleet-demo", i)
		if err == nil {
			//lint:ignore rawsend synthetic local load; a full mailbox is the backpressure being measured
			_ = n.Platform.Send(env)
		}
	}
}

// Fleet is a running multi-node telemetry deployment.
type Fleet struct {
	Monitor  *Monitor
	Platform *agent.Platform // the monitor-side platform
	Gateway  *agent.Gateway
	Nodes    []*FleetNode
}

// StartFleet boots the monitor (platform + gateway + monitor agent +
// echo responder) and cfg.Nodes nodes, each with a reconnecting TCP link
// to the gateway, a running reporter deputy, and an idle prober. Close
// tears everything down.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.Real
	}

	mp := agent.NewPlatform("monitor")
	mp.Clock = cfg.Clock
	mon, err := RegisterMonitor(mp, MonitorOptions{Interval: cfg.Interval})
	if err != nil {
		mp.Close()
		return nil, err
	}
	// Local monitor-side hops join the stitched ring directly.
	mp.Tracer = mon.Tracer()
	if err := RegisterEcho(mp); err != nil {
		mp.Close()
		return nil, err
	}
	gw, err := agent.ListenAndServe(mp, "127.0.0.1:0")
	if err != nil {
		mp.Close()
		return nil, err
	}

	f := &Fleet{Monitor: mon, Platform: mp, Gateway: gw}
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node-%d", i+1)
		np := agent.NewPlatform(name)
		np.Clock = cfg.Clock
		np.Tracer = obs.NewTracer(2048)
		np.Tracer.AttachMetrics(np.Metrics()) // the ledger rides the node's snapshot
		// A sink, not an echo: local work should not leak replies onto
		// the uplink.
		if err := np.Register(WorkerID, agent.HandlerFunc(func(agent.Envelope, *agent.Context) {}),
			agent.Attributes{Agent: map[string]string{agent.AttrRole: "worker"}}, nil); err != nil {
			f.Close()
			np.Close()
			return nil, err
		}
		fcfg := faultinject.Config{Seed: int64(i + 1)}
		if i < len(cfg.NodeFaults) {
			fcfg = cfg.NodeFaults[i]
			if fcfg.Seed == 0 {
				fcfg.Seed = int64(i + 1)
			}
		}
		inj := faultinject.New(fcfg)
		inj.AttachMetrics(np.Metrics())
		link := agent.DialReconnect(np, gw.Addr(), agent.ReconnectOptions{
			WrapRoute: inj.WrapRoute,
		})
		rep := StartReporter(np, ReporterOptions{Interval: cfg.Interval})
		prober := NewProber(np, ProbeOptions{Interval: cfg.Interval})
		f.Nodes = append(f.Nodes, &FleetNode{
			Name:     name,
			Platform: np,
			Link:     link,
			Reporter: rep,
			Prober:   prober,
			Injector: inj,
		})
	}
	return f, nil
}

// StopNode kills node i: reporter, prober, link, and platform all go
// away, exactly like a crashed or powered-off device. Idempotent.
func (f *Fleet) StopNode(i int) {
	n := f.Nodes[i]
	if n.Platform == nil {
		return
	}
	n.Reporter.Close()
	n.Prober.Close()
	n.Link.Close()
	n.Platform.Close()
	n.Platform = nil
}

// Close tears the whole fleet down, nodes first.
func (f *Fleet) Close() {
	for i := range f.Nodes {
		f.StopNode(i)
	}
	f.Gateway.Close()
	f.Platform.Close()
}
