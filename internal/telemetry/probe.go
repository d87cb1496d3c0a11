package telemetry

import (
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/supervise"
)

// Transport probing: a node cannot read its uplink cost off a local
// histogram — injected latency and silent drops happen beyond its
// deputy — so it measures the only way a distributed system can: by
// round-tripping real envelopes and timing them. The prober records
//
//	transport_rtt_seconds        histogram  per-probe round-trip time
//	transport_probe_sent_total   counter    probes attempted
//	transport_probe_lost_total   counter    probes that timed out
//
// into the platform registry; those are exactly the series
// partition.ObservedFromSnapshot reads on the monitor side, which makes
// the probe → report → aggregate → ApplyObserved chain fully automatic.

// ProbeOptions tunes a transport prober. Probes round-trip against
// EchoID, on the monitor platform.
type ProbeOptions struct {
	// Interval separates periodic probes (default 1s; only used by the
	// background loop).
	Interval time.Duration
	// Timeout bounds one probe conversation (default 250ms). A probe
	// that times out counts as lost.
	Timeout time.Duration
}

// EchoID is the well-known echo responder the monitor side registers.
const EchoID agent.ID = "telemetry-echo"

func (o ProbeOptions) withDefaults() ProbeOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
	}
	return o
}

// RegisterEcho registers the telemetry echo responder on p as EchoID:
// every probe request is answered with an inform carrying the same body.
func RegisterEcho(p *agent.Platform) error {
	return p.Register(EchoID, agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		if out, err := env.Reply("inform", "pong"); err == nil {
			out.From = ctx.Self
			// A retried echo reply would hide the loss the probe exists to
			// measure: a dropped pong must count as a dropped pong.
			//lint:ignore rawsend probe replies must not retry — loss is the measured signal
			_ = ctx.Platform.Send(out)
		}
	}), agent.Attributes{Agent: map[string]string{agent.AttrRole: "telemetry-echo"}}, nil)
}

// Prober measures a node's uplink by echo round-trips.
type Prober struct {
	platform *agent.Platform
	opts     ProbeOptions

	mu     sync.Mutex
	loop   *supervise.Proc // the periodic loop, once started
	closed bool
}

// NewProber builds a prober; call ProbeOnce for synchronous probes or
// Start for a background probe loop.
func NewProber(p *agent.Platform, opts ProbeOptions) *Prober {
	return &Prober{platform: p, opts: opts.withDefaults()}
}

// ProbeOnce round-trips one probe and records it. It returns the RTT and
// whether the probe completed.
func (pr *Prober) ProbeOnce() (time.Duration, bool) {
	reg := pr.platform.Metrics()
	reg.Counter(partition.SeriesTransportProbeSent).Inc()
	clk := clockOf(pr.platform)
	start := clk.Now()
	// A single attempt, so each probe measures one shot of the link, not
	// the retry layer.
	_, err := agent.CallRetry(pr.platform, EchoID, "request", OntologyProbe,
		"ping", pr.opts.Timeout, agent.RetryPolicy{MaxAttempts: 1, Clock: clk})
	if err != nil {
		reg.Counter(partition.SeriesTransportProbeLost).Inc()
		return 0, false
	}
	rtt := clk.Now().Sub(start)
	reg.Histogram(partition.SeriesTransportRTT).Observe(rtt.Seconds())
	return rtt, true
}

// Start launches the periodic probe loop. Idempotent, and a no-op
// after Close.
func (pr *Prober) Start() {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.loop == nil && !pr.closed {
		pr.loop = supervise.Periodic("telemetry-probe", clockOf(pr.platform), pr.opts.Interval, func() { pr.ProbeOnce() })
	}
}

// Close stops the probe loop. Idempotent.
func (pr *Prober) Close() {
	pr.mu.Lock()
	pr.closed = true
	loop := pr.loop
	pr.mu.Unlock()
	if loop != nil {
		loop.Stop()
	}
}
