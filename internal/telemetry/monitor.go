package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/supervise"
)

// Health is a node's liveness classification, derived from report
// staleness on the monitor's clock: a node that keeps reporting is
// healthy; one that has gone quiet decays through degraded and suspect
// to down, and snaps back to healthy on its next report.
type Health string

// Health states, ordered by increasing staleness.
const (
	Healthy  Health = "healthy"
	Degraded Health = "degraded"
	Suspect  Health = "suspect"
	Down     Health = "down"
)

// healthRank orders states for severity comparisons.
func healthRank(h Health) int {
	switch h {
	case Healthy:
		return 0
	case Degraded:
		return 1
	case Suspect:
		return 2
	default:
		return 3
	}
}

// MonitorOptions tunes the fleet monitor.
type MonitorOptions struct {
	// Interval is the report period the monitor expects from nodes
	// (default 1s). A node whose last report is older than 2× Interval is
	// degraded, older than 4× suspect, older than 8× down.
	Interval time.Duration
	// Clock is the staleness time source (default: the platform's
	// clock); tests drive health transitions with obs.FakeClock.
	Clock obs.Clock
	// Breakers, when set, closes the health→delivery feedback loop:
	// SyncBreakers force-opens the breaker of every suspect or down
	// node (senders stop feeding a node the monitor believes dead) and
	// credits healthy nodes so half-open circuits can close. Share the
	// set with the sending platform (Platform.Breakers) or composition
	// engine to make the monitor's verdicts bite.
	Breakers *supervise.BreakerSet
}

// The monitor's rings: stitched cross-node spans and fleet-merged wide
// events.
const (
	monitorTraceCapacity = 8192
	monitorEventCapacity = 4096
)

func (o MonitorOptions) withDefaults(p *agent.Platform) MonitorOptions {
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

// nodeState is everything the monitor knows about one node.
type nodeState struct {
	snap      obs.Snapshot // reconstructed full view
	snapSeq   uint64       // the report snap came from (0: none yet)
	lastSeen  time.Time    // monitor clock at last report
	sentAt    time.Time    // node clock when the last report was built
	boot      time.Time    // the reporter incarnation seq counts within
	seq       uint64       // highest seq seen from boot
	reports   uint64
	missed    uint64 // seq gaps (reports lost in transit)
	spans     uint64
	events    uint64
	delivered uint64
	dropped   uint64
	retries   uint64

	// Tracer sampling ledger, as last reported by the node.
	spansSampled uint64
	spansDropped uint64
	spansEvicted uint64

	// lastHealth is the verdict announced to health subscribers at the
	// last evaluation ("" until the node is first evaluated).
	lastHealth Health
}

// Monitor is the fleet MonitorAgent: it ingests telemetry reports,
// maintains per-node snapshots and health states, stitches cross-node
// traces, and exposes the merged fleet view as an obs.Source.
type Monitor struct {
	platform *agent.Platform
	opts     MonitorOptions
	tracer   *obs.Tracer
	events   *obs.EventLog

	mu    sync.Mutex
	nodes map[string]*nodeState

	// Health-verdict subscribers, under their own mutex so notifications
	// (which run outside m.mu) never race subscription changes.
	healthSubMu   sync.Mutex
	healthSubs    map[int]func(node string, from, to Health)
	nextHealthSub int
}

// RegisterMonitor registers the monitor agent on p. Nodes reach it by
// sending Report envelopes to MonitorID — from the same platform or
// across any number of gateways.
func RegisterMonitor(p *agent.Platform, opts MonitorOptions) (*Monitor, error) {
	m := &Monitor{
		platform: p,
		opts:     opts.withDefaults(p),
		nodes:    map[string]*nodeState{},
	}
	m.tracer = obs.NewTracer(monitorTraceCapacity)
	m.events = obs.NewEventLog(monitorEventCapacity)
	err := p.Register(MonitorID, agent.HandlerFunc(m.handle),
		agent.Attributes{Agent: map[string]string{agent.AttrRole: "fleet-monitor"}}, nil)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// handle ingests one envelope delivered to the monitor agent. A refused
// report is answered once, naming the seq the monitor holds; the reporter
// takes any reply as "next report full".
func (m *Monitor) handle(env agent.Envelope, _ *agent.Context) {
	if env.Ontology != OntologyReport {
		return
	}
	var rep Report
	if err := env.Decode(&rep); err != nil || rep.Node == "" {
		m.platform.Metrics().Counter("telemetry_bad_reports_total").Inc()
		return
	}
	if held, refused := m.Ingest(rep); refused {
		if reply, err := env.Reply("refuse", held); err == nil {
			//lint:ignore rawsend refusals are sent once — a lost one is repeated when the next delta is refused
			_ = m.platform.Send(reply)
		}
	}
}

// Ingest merges one report into the fleet state. A report at or below
// the highest seq seen from the same reporter incarnation is stale and
// dropped whole. A newer report's snapshot is applied only when it is
// full or its Base is the seq the stored snapshot came from; otherwise
// Ingest refuses it, returning the seq the stored snapshot came from, and
// keeps the rest of the report (liveness, ledgers, spans, events).
// Exported so in-process deployments (and tests) can bypass the envelope
// layer.
func (m *Monitor) Ingest(rep Report) (held uint64, refused bool) {
	now := m.opts.Clock.Now()
	m.mu.Lock()
	ns := m.nodes[rep.Node]
	if ns == nil {
		ns = &nodeState{}
		m.nodes[rep.Node] = ns
	}
	switch {
	case rep.Boot.After(ns.boot): // the reporter restarted
		ns.boot, ns.seq, ns.snapSeq = rep.Boot, 0, 0
	case rep.Boot.Before(ns.boot) || rep.Seq <= ns.seq:
		m.mu.Unlock()
		return 0, false
	}
	switch {
	case rep.Base == 0:
		ns.snap, ns.snapSeq = rep.Snap.Clone(), rep.Seq
	case rep.Base == ns.snapSeq:
		ns.snap, ns.snapSeq = ns.snap.Apply(rep.Snap), rep.Seq
	default:
		held, refused = ns.snapSeq, true
	}
	// A gap means reports died in transit — telemetry observing its own
	// loss.
	if ns.seq > 0 && rep.Seq > ns.seq+1 {
		ns.missed += rep.Seq - ns.seq - 1
	}
	ns.seq = rep.Seq
	ns.reports++
	ns.spans += uint64(len(rep.Spans))
	ns.events += uint64(len(rep.Events))
	ns.lastSeen = now
	ns.sentAt = rep.SentAt
	ns.delivered, ns.dropped, ns.retries = rep.Delivered, rep.Dropped, rep.Retries
	ns.spansSampled, ns.spansDropped, ns.spansEvicted =
		rep.SpansSampled, rep.SpansDropped, rep.SpansEvicted
	m.mu.Unlock()

	for _, s := range rep.Spans {
		m.tracer.Record(s)
	}
	for _, e := range rep.Events {
		m.events.Emit(e)
	}

	reg := m.platform.Metrics()
	reg.Counter("telemetry_reports_total", "node", rep.Node).Inc()
	reg.Counter("telemetry_spans_total").Add(float64(len(rep.Spans)))
	reg.Counter("telemetry_events_total").Add(float64(len(rep.Events)))
	if refused {
		reg.Counter("telemetry_refused_reports_total").Inc()
	}
	reg.Gauge("telemetry_nodes").Set(float64(m.NodeCount()))
	m.SyncBreakers()
	return held, refused
}

// SyncBreakers pushes the monitor's current health verdicts into the
// attached breaker set: suspect and down nodes are force-opened (their
// circuits stop admitting traffic even though individual sends may still
// be succeeding into a void), healthy nodes are credited so a half-open
// circuit can close. Breaker pushes are a no-op without
// MonitorOptions.Breakers; health-change subscribers are notified either
// way. Called automatically from Ingest and Fleet; exported for callers
// that want to sync on their own cadence.
func (m *Monitor) SyncBreakers() { m.evaluate() }

// OnHealthChange subscribes fn to every node health-verdict change
// (evaluated on Ingest, Fleet, and SyncBreakers) and returns a cancel
// func. A node's first evaluation compares against Healthy, so only
// nodes that appear already degraded fire on arrival. Subscribers run
// synchronously on the evaluating goroutine with no monitor locks held;
// they should hand the verdict off quickly (non-blocking channel send)
// rather than do work inline.
func (m *Monitor) OnHealthChange(fn func(node string, from, to Health)) func() {
	m.healthSubMu.Lock()
	if m.healthSubs == nil {
		m.healthSubs = map[int]func(string, Health, Health){}
	}
	id := m.nextHealthSub
	m.nextHealthSub++
	m.healthSubs[id] = fn
	m.healthSubMu.Unlock()
	return func() {
		m.healthSubMu.Lock()
		delete(m.healthSubs, id)
		m.healthSubMu.Unlock()
	}
}

// evaluate classifies every node, records verdict changes, then — outside
// m.mu — pushes verdicts into the breaker set and notifies subscribers.
func (m *Monitor) evaluate() {
	bs := m.opts.Breakers
	now := m.opts.Clock.Now()
	type verdict struct {
		node     string
		from, to Health
	}
	m.mu.Lock()
	verdicts := make([]verdict, 0, len(m.nodes))
	for name, ns := range m.nodes {
		h := m.health(now.Sub(ns.lastSeen))
		prev := ns.lastHealth
		if prev == "" {
			prev = Healthy
		}
		ns.lastHealth = h
		verdicts = append(verdicts, verdict{name, prev, h})
	}
	m.mu.Unlock()
	for _, v := range verdicts {
		if bs != nil {
			switch v.to {
			case Suspect, Down:
				bs.ForceOpen(v.node)
			case Healthy:
				bs.Success(v.node)
			}
		}
		if v.from != v.to {
			m.notifyHealth(v.node, v.from, v.to)
		}
	}
}

// notifyHealth fans one verdict change out to subscribers.
func (m *Monitor) notifyHealth(node string, from, to Health) {
	m.healthSubMu.Lock()
	if len(m.healthSubs) == 0 {
		m.healthSubMu.Unlock()
		return
	}
	fns := make([]func(string, Health, Health), 0, len(m.healthSubs))
	for _, fn := range m.healthSubs {
		fns = append(fns, fn)
	}
	m.healthSubMu.Unlock()
	for _, fn := range fns {
		fn(node, from, to)
	}
}

// health classifies staleness against the thresholds.
func (m *Monitor) health(staleness time.Duration) Health {
	switch {
	case staleness <= 2*m.opts.Interval:
		return Healthy
	case staleness <= 4*m.opts.Interval:
		return Degraded
	case staleness <= 8*m.opts.Interval:
		return Suspect
	default:
		return Down
	}
}

// NodeCount reports how many nodes have ever reported.
func (m *Monitor) NodeCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.nodes)
}

// ObservedTransport derives the measured transport view of one node from
// its reported metrics — the feedback edge into the partition decision
// maker. The latency comes from the node's probe RTT (or deliver
// latency) histogram; the drop rate prefers probe losses and falls back
// to the node's delivery accounting (dropped vs delivered envelopes).
func (m *Monitor) ObservedTransport(node string) (partition.ObservedTransport, bool) {
	m.mu.Lock()
	ns := m.nodes[node]
	if ns == nil {
		m.mu.Unlock()
		return partition.ObservedTransport{}, false
	}
	snap := ns.snap
	delivered, dropped := ns.delivered, ns.dropped
	m.mu.Unlock()
	o := partition.ObservedFromSnapshot(snap)
	if o.DropRate == 0 && delivered+dropped > 0 {
		o.DropRate = float64(dropped) / float64(delivered+dropped)
	}
	return o, true
}

// Correct applies one node's observed transport to a decision maker,
// returning the observation used (zero-valued fields leave the
// corresponding constants untouched). The caller picks *which* node's
// transport matters for the placement at hand — typically the node
// hosting the candidate remote computation.
func (m *Monitor) Correct(dm *partition.DecisionMaker, node string) (partition.ObservedTransport, bool) {
	o, ok := m.ObservedTransport(node)
	if !ok {
		return o, false
	}
	dm.CorrectTransport(o)
	return o, true
}

// NodeView is one node's row in the fleet view.
type NodeView struct {
	Node         string    `json:"node"`
	Health       Health    `json:"health"`
	LastSeen     time.Time `json:"lastSeen"`
	StalenessSec float64   `json:"stalenessSec"`
	Seq          uint64    `json:"seq"`
	Reports      uint64    `json:"reports"`
	Missed       uint64    `json:"missedReports"`
	Spans        uint64    `json:"spans"`
	Events       uint64    `json:"events"`
	Delivered    uint64    `json:"delivered"`
	Dropped      uint64    `json:"dropped"`
	Retries      uint64    `json:"retries"`
	Series       int       `json:"series"`
	// The node's tracer sampling ledger: how many spans it retained,
	// head-dropped, and overwrote. A climbing SpansEvicted on a
	// full-capture node means the ring is too small (or it is time to
	// sample); SpansDropped quantifies what sampling cost.
	SpansSampled uint64 `json:"spansSampled"`
	SpansDropped uint64 `json:"spansDropped"`
	SpansEvicted uint64 `json:"spansEvicted"`
	Observed     struct {
		AvgDeliverSec float64 `json:"avgDeliverSec"`
		DropRate      float64 `json:"dropRate"`
	} `json:"observed"`
	Snapshot obs.Snapshot `json:"snapshot"`
}

// FleetView is the monitor's aggregate answer: every node with its
// health, plus fleet-level rollups.
type FleetView struct {
	GeneratedAt time.Time  `json:"generatedAt"`
	Nodes       []NodeView `json:"nodes"`
	// Worst is the most severe health present (Healthy for an empty
	// fleet: nothing known to be wrong).
	Worst Health `json:"worst"`
	// Traces is how many distinct stitched trace IDs are retained.
	Traces int `json:"traces"`
	// Events is how many fleet-merged wide events are retained.
	Events int `json:"events"`
	// Breakers is the per-node circuit state when the monitor drives a
	// breaker set (absent otherwise) — open circuits in /fleet.json are
	// the operator's first clue a node is being shed.
	Breakers []supervise.BreakerView `json:"breakers,omitempty"`
}

// Fleet builds the current fleet view, nodes sorted by name.
func (m *Monitor) Fleet() FleetView {
	now := m.opts.Clock.Now()
	fv := FleetView{GeneratedAt: now, Worst: Healthy}
	m.mu.Lock()
	names := make([]string, 0, len(m.nodes))
	for name := range m.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := m.nodes[name]
		stale := now.Sub(ns.lastSeen)
		nv := NodeView{
			Node:         name,
			Health:       m.health(stale),
			LastSeen:     ns.lastSeen,
			StalenessSec: stale.Seconds(),
			Seq:          ns.seq,
			Reports:      ns.reports,
			Missed:       ns.missed,
			Spans:        ns.spans,
			Events:       ns.events,
			Delivered:    ns.delivered,
			Dropped:      ns.dropped,
			Retries:      ns.retries,
			Series:       ns.snap.Len(),
			SpansSampled: ns.spansSampled,
			SpansDropped: ns.spansDropped,
			SpansEvicted: ns.spansEvicted,
			Snapshot:     ns.snap.Clone(),
		}
		if healthRank(nv.Health) > healthRank(fv.Worst) {
			fv.Worst = nv.Health
		}
		fv.Nodes = append(fv.Nodes, nv)
	}
	m.mu.Unlock()
	for i := range fv.Nodes {
		if o, ok := m.ObservedTransport(fv.Nodes[i].Node); ok {
			fv.Nodes[i].Observed.AvgDeliverSec = o.AvgDeliverSec
			fv.Nodes[i].Observed.DropRate = o.DropRate
		}
	}
	fv.Traces = len(m.tracer.Traces())
	fv.Events = len(m.events.Events())
	m.evaluate()
	if m.opts.Breakers != nil {
		fv.Breakers = m.opts.Breakers.Snapshot()
	}
	return fv
}

// Snapshot implements obs.Source: the fleet-merged metric view, every
// series labeled with its origin node. Mount the monitor straight into
// obs.Handler to scrape the whole deployment from one endpoint.
func (m *Monitor) Snapshot() obs.Snapshot {
	m.mu.Lock()
	per := make(map[string]obs.Snapshot, len(m.nodes))
	for name, ns := range m.nodes {
		per[name] = ns.snap
	}
	m.mu.Unlock()
	return obs.MergeByNode(per)
}

// Tracer exposes the stitched cross-node span ring. Give it to the
// monitor platform (Platform.Tracer) to interleave local hops with the
// reported ones.
func (m *Monitor) Tracer() *obs.Tracer { return m.tracer }

// Events exposes the fleet-merged wide-event ring. Give it to the
// monitor platform (Platform.Events) to interleave local conversations
// with the reported ones, and mount it at /events.json.
func (m *Monitor) Events() *obs.EventLog { return m.events }

// Timeline renders one stitched cross-node trace, then the wide events
// reported under it (a failed, unsampled conversation has only these).
func (m *Monitor) Timeline(traceID uint64) string {
	var b strings.Builder
	b.WriteString(m.tracer.Timeline(traceID))
	for _, ev := range m.events.Events() {
		if ev.Trace != traceID {
			continue
		}
		fmt.Fprintf(&b, "  event [%s]  %s -> %s  %s  %.3fms  retries=%d sheds=%d hops=%d  %v",
			ev.Node, ev.From, ev.To, ev.Outcome, ev.Ms, ev.Retries, ev.Sheds, ev.Hops, ev.Phases)
		if ev.Err != "" {
			fmt.Fprintf(&b, "  err=%s", ev.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Close deregisters the monitor agent.
func (m *Monitor) Close() { m.platform.Deregister(MonitorID) }
