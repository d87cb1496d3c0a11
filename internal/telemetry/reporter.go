package telemetry

import (
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// ReporterOptions tunes a node's reporter deputy. Reports go to
// MonitorID, which may live on the local platform or behind any route
// (gateway, reconnecting link) — the reporter only sees an ID.
type ReporterOptions struct {
	// Interval is the reporting period (default 1s).
	Interval time.Duration
	// Sources are extra metric registries merged into the node snapshot
	// alongside the platform's own registry (e.g. core.Runtime.Metrics).
	Sources []obs.Source
	// Clock overrides the time source (default: the platform's clock).
	Clock obs.Clock
}

// A report ships at most the newest reportMaxSpans spans and
// reportMaxEvents wide events.
const (
	reportMaxSpans  = 512
	reportMaxEvents = 256
)

func (o ReporterOptions) withDefaults(p *agent.Platform) ReporterOptions {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Clock == nil {
		if p.Clock != nil {
			o.Clock = p.Clock
		} else {
			o.Clock = obs.Real
		}
	}
	return o
}

// Reporter is the reporter deputy: a lightweight agent that periodically
// snapshots its node's observability state and ships it to the fleet
// monitor, delta-encoded so a quiet node costs almost nothing on the
// wire. Each delta is computed against the previous report and names its
// seq as Base. The first report, and the next one after a send failure or
// a refusal from the monitor, is a full snapshot.
type Reporter struct {
	platform *agent.Platform
	opts     ReporterOptions
	boot     time.Time // the incarnation every report names
	// id is the reporter's own agent ID, "telemetry-reporter-" + platform
	// name: reporters crossing one gateway must be unique fleet-wide so
	// reverse routes don't collide.
	id      agent.ID
	done    chan struct{}
	stopped chan struct{}

	mu         sync.Mutex
	last       obs.Snapshot // the snapshot report seq carried
	haveLast   bool         // false: the next report is full
	seq        uint64
	spanTotal  uint64 // tracer total at the previous report
	eventTotal uint64 // event-log total at the previous report
	closed     bool
}

// StartReporter registers the reporter agent on p and begins the report
// loop: one immediate full report, then one report per interval. Close
// stops the loop and deregisters the agent.
func StartReporter(p *agent.Platform, opts ReporterOptions) (*Reporter, error) {
	r := &Reporter{
		platform: p,
		opts:     opts.withDefaults(p),
		id:       agent.ID("telemetry-reporter-" + p.Name),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
	}
	r.boot = r.opts.Clock.Now()
	err := p.Register(r.id, agent.HandlerFunc(r.handle),
		agent.Attributes{Agent: map[string]string{agent.AttrRole: "telemetry-reporter"}}, nil)
	if err != nil {
		return nil, err
	}
	supervise.Spawn("telemetry-reporter", r.loop)
	return r, nil
}

// handle is the reporter's inbound side. The monitor replies only to
// refuse a delta whose base it does not hold, so any reply makes the next
// report full.
func (r *Reporter) handle(env agent.Envelope, _ *agent.Context) {
	if env.Ontology != OntologyReport {
		return
	}
	r.mu.Lock()
	r.haveLast = false
	r.mu.Unlock()
}

func (r *Reporter) loop() {
	defer close(r.stopped)
	clk := r.opts.Clock
	_ = r.ReportNow() // announce the node immediately
	for {
		select {
		case <-r.done:
			return
		case <-clk.After(r.opts.Interval):
		}
		select {
		case <-r.done:
			return
		default:
		}
		_ = r.ReportNow()
	}
}

// snapshot captures the node's merged metric view (platform registry +
// extra sources), refreshing the runtime gauges first.
func (r *Reporter) snapshot() obs.Snapshot {
	obs.CaptureRuntime(r.platform.Metrics())
	snaps := []obs.Snapshot{r.platform.MetricsSnapshot()}
	for _, src := range r.opts.Sources {
		if src != nil {
			snaps = append(snaps, src.Snapshot())
		}
	}
	return obs.Merge(snaps...)
}

// newSpans returns the spans recorded since the previous report, capped
// at reportMaxSpans (most recent kept), and the tracer total to remember.
func (r *Reporter) newSpans(prevTotal uint64) ([]obs.Span, uint64) {
	tr := r.platform.Tracer
	if tr == nil {
		return nil, 0
	}
	total := tr.SampledTotal()
	fresh := total - prevTotal
	if fresh == 0 {
		return nil, total
	}
	spans := tr.Spans() // oldest first; the ring may have evicted some
	if uint64(len(spans)) > fresh {
		spans = spans[uint64(len(spans))-fresh:]
	}
	if len(spans) > reportMaxSpans {
		spans = spans[len(spans)-reportMaxSpans:]
	}
	out := make([]obs.Span, len(spans))
	copy(out, spans)
	return out, total
}

// newEvents returns the wide events emitted since the previous report,
// capped at reportMaxEvents (most recent kept), and the log total to remember.
func (r *Reporter) newEvents(prevTotal uint64) ([]obs.Event, uint64) {
	el := r.platform.Events
	if el == nil {
		return nil, 0
	}
	events, total := el.Since(prevTotal)
	if len(events) > reportMaxEvents {
		events = events[len(events)-reportMaxEvents:]
	}
	return events, total
}

// ReportNow builds and ships one report immediately (also used by the
// periodic loop). It is sent once: if it is lost, the monitor refuses the
// next delta, whose base it never saw, and its reply makes the report
// after that full. A send that fails here makes the next report full.
func (r *Reporter) ReportNow() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return agent.ErrClosed
	}
	cur := r.snapshot()
	ship, base := cur, uint64(0)
	if r.haveLast {
		ship, base = cur.Delta(r.last), r.seq
	}
	spans, spanTotal := r.newSpans(r.spanTotal)
	events, eventTotal := r.newEvents(r.eventTotal)
	r.seq++
	st := r.platform.DeliveryStats()
	tr := r.platform.Tracer
	rep := Report{
		Node:         r.platform.Name,
		Boot:         r.boot,
		Seq:          r.seq,
		Base:         base,
		Snap:         ship,
		Spans:        spans,
		Events:       events,
		SpansSampled: tr.SampledTotal(),
		SpansDropped: tr.DroppedTotal(),
		SpansEvicted: tr.Evicted(),
		Delivered:    st.Delivered,
		Dropped:      st.Dropped,
		Retries:      st.Retries,
		SentAt:       r.opts.Clock.Now(),
	}
	r.last, r.haveLast = cur, true
	r.spanTotal = spanTotal
	r.eventTotal = eventTotal
	r.mu.Unlock()

	env, err := agent.NewEnvelope(r.id, MonitorID, "inform", OntologyReport, rep)
	if err == nil {
		//lint:ignore rawsend reports are sent once — the monitor refuses the delta after a lost one, and its reply makes the next report full
		err = r.platform.Send(env)
	}
	if err != nil {
		r.mu.Lock()
		r.haveLast = false
		r.mu.Unlock()
	}
	return err
}

// Close stops the report loop and deregisters the reporter agent.
func (r *Reporter) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.done)
	<-r.stopped
	r.platform.Deregister(r.id)
}
