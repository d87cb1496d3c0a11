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
}

// A report ships at most the newest reportMaxSpans spans and
// reportMaxEvents wide events; the monitor refuses a report over either
// cap, and report content over reportMaxBytes before decoding it. Every
// report carries the node's full snapshot. The largest legitimate report
// measured, 512 spans and 256 events as long as a -recompose node's
// longest ones (203 and 376 bytes) with the snapshot of a node hosting
// 2 000 agents (one agent_mailbox_depth gauge each, 2 008 series, 100 001
// bytes), encodes to 301 104 bytes; the bound leaves over three times
// that for longer names, error strings and series.
const (
	reportMaxSpans  = 512
	reportMaxEvents = 256
	reportMaxBytes  = 1 << 20
)

// Reporter is the reporter deputy: it periodically snapshots its node's
// observability state and ships it to the fleet monitor. Every report
// carries the node's full snapshot, so the monitor needs no earlier
// report to read one.
type Reporter struct {
	platform *agent.Platform
	opts     ReporterOptions
	clk      obs.Clock
	boot     time.Time // the incarnation every report names
	// id is the reports' sender, "telemetry-reporter-" + platform name:
	// reporters crossing one gateway must be unique fleet-wide so reverse
	// routes don't collide.
	id   agent.ID
	loop *supervise.Proc

	mu         sync.Mutex
	seq        uint64
	spanTotal  uint64 // tracer total at the previous report
	eventTotal uint64 // event-log total at the previous report
	closed     bool
}

// StartReporter sends p's first report, then one report per interval
// until Close.
func StartReporter(p *agent.Platform, opts ReporterOptions) *Reporter {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	r := &Reporter{platform: p, opts: opts, clk: clockOf(p), id: agent.ID("telemetry-reporter-" + p.Name)}
	r.boot = r.clk.Now()
	_ = r.ReportNow() // announce the node immediately
	r.loop = supervise.Periodic("telemetry-reporter", r.clk, opts.Interval, func() { _ = r.ReportNow() })
	return r
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

// ReportNow builds and ships one report immediately (also used by the
// periodic loop). It is sent once: a lost report costs the monitor one
// interval of freshness, and the next report replaces it whole.
func (r *Reporter) ReportNow() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return agent.ErrClosed
	}
	snap := r.snapshot()
	spans, spanTotal := r.platform.Tracer.Since(r.spanTotal, reportMaxSpans)
	events, eventTotal := r.platform.Events.Since(r.eventTotal, reportMaxEvents)
	r.seq++
	rep := Report{
		Node:   r.platform.Name,
		Boot:   r.boot,
		Seq:    r.seq,
		Snap:   snap,
		Spans:  spans,
		Events: events,
		SentAt: r.clk.Now(),
	}
	r.spanTotal = spanTotal
	r.eventTotal = eventTotal
	r.mu.Unlock()

	env, err := agent.NewEnvelope(r.id, MonitorID, "inform", OntologyReport, rep)
	if err != nil {
		return err
	}
	//lint:ignore rawsend reports are sent once — a lost report costs one interval, and the next one carries the whole snapshot
	return r.platform.Send(env)
}

// Close stops the report loop. Idempotent.
func (r *Reporter) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.loop.Stop()
}
