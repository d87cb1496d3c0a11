package telemetry

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/query"
)

// waitFor polls cond until it holds or the real-time deadline passes.
// Virtual time is driven explicitly by the tests; this only absorbs
// goroutine/network scheduling delay, so outcomes stay deterministic.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestReporterShipsSnapshotsToLocalMonitor(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("node-a")
	p.Clock = clk
	defer p.Close()

	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	app := obs.NewRegistry()
	rep := StartReporter(p, ReporterOptions{
		Interval: time.Second,
		Sources:  []obs.Source{app},
	})
	defer rep.Close()

	// The reporter announces itself immediately.
	waitFor(t, "first report", func() bool { return mon.Reports("node-a") >= 1 })
	snap, ok := mon.NodeSnapshot("node-a")
	if !ok {
		t.Fatal("node-a unknown after first report")
	}
	if snap.Gauges["runtime_goroutines"] < 1 {
		t.Fatalf("runtime gauges missing from report: %v", snap.Gauges)
	}
	if mon.Health("node-a") != Healthy {
		t.Fatalf("health = %v, want healthy", mon.Health("node-a"))
	}

	// Change one app series; the next report replaces the stored view
	// and still carries the untouched series. The reporter must be parked
	// on the clock before it moves, or the advance skips its tick.
	app.Counter("app_things_total").Add(5)
	waitFor(t, "reporter parked on the clock", func() bool { return clk.Waiters() >= 1 })
	clk.Advance(time.Second)
	waitFor(t, "second report", func() bool { return mon.Reports("node-a") >= 2 })
	snap, _ = mon.NodeSnapshot("node-a")
	if snap.Counters["app_things_total"] != 5 {
		t.Fatalf("second report not stored: %v", snap.Counters)
	}
	if snap.Gauges["runtime_goroutines"] < 1 {
		t.Fatalf("second report lost the untouched series: %v", snap.Gauges)
	}

	fv := mon.Fleet()
	if len(fv.Nodes) != 1 || fv.Nodes[0].Node != "node-a" || fv.Worst != Healthy {
		t.Fatalf("fleet view = %+v", fv)
	}
	if fv.Nodes[0].Series == 0 {
		t.Fatal("fleet view reports zero series")
	}
}

func TestHealthDecaysWithStalenessAndRecovers(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("node-b")
	p.Clock = clk
	defer p.Close()

	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep := StartReporter(p, ReporterOptions{Interval: time.Second})
	waitFor(t, "first report", func() bool { return mon.Reports("node-b") >= 1 })

	// Stop reporting and walk the clock through every threshold:
	// healthy (≤2s) → degraded (≤4s) → suspect (≤8s) → down.
	rep.Close()
	steps := []struct {
		advance time.Duration
		want    Health
	}{
		{time.Second, Healthy},                         // 1s stale
		{time.Second + 500*time.Millisecond, Degraded}, // 2.5s
		{2 * time.Second, Suspect},                     // 4.5s
		{4 * time.Second, Down},                        // 8.5s
	}
	for _, st := range steps {
		clk.Advance(st.advance)
		if got := mon.Health("node-b"); got != st.want {
			t.Fatalf("after advance to %v staleness: health = %v, want %v",
				clk.Now(), got, st.want)
		}
	}
	if fv := mon.Fleet(); fv.Worst != Down {
		t.Fatalf("fleet worst = %v, want down", fv.Worst)
	}

	// A fresh report snaps the node straight back to healthy.
	rep2 := StartReporter(p, ReporterOptions{Interval: time.Second})
	defer rep2.Close()
	waitFor(t, "recovery report", func() bool { return mon.Health("node-b") == Healthy })
}

func TestMonitorCountsSeqGaps(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(1)
	full := reg.Snapshot()
	mon.Ingest(Report{Node: "n", Seq: 1, Snap: full})
	mon.Ingest(Report{Node: "n", Seq: 2, Snap: full})
	// Reports 3 and 4 lost in transit.
	mon.Ingest(Report{Node: "n", Seq: 5, Snap: full})
	mon.Ingest(Report{Node: "n", Seq: 6, Snap: full})
	// A duplicated envelope replays an old seq: stale, so not counted.
	mon.Ingest(Report{Node: "n", Seq: 5, Snap: full})

	fv := mon.Fleet()
	if len(fv.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(fv.Nodes))
	}
	nv := fv.Nodes[0]
	if nv.Missed != 2 {
		t.Fatalf("missed = %d, want 2", nv.Missed)
	}
	if nv.Seq != 6 {
		t.Fatalf("seq = %d, want 6", nv.Seq)
	}
	if nv.Reports != 4 {
		t.Fatalf("reports = %d, want 4", nv.Reports)
	}
}

// TestIngestKeepsTheNewestReport drives Ingest through the report
// sequences a lossy uplink produces. A report a step leaves out was lost
// in transit. After every step the stored view must be the snapshot of
// the newest report the monitor applied, never a mix.
func TestIngestKeepsTheNewestReport(t *testing.T) {
	type step struct {
		rep     Report
		applied bool // false: stale, dropped whole
	}
	g := func(kv map[string]float64) obs.Snapshot { return obs.Snapshot{Gauges: kv} }
	boot := obs.NewFakeClock().Now()
	reboot := boot.Add(time.Minute)
	cases := []struct {
		name  string
		steps []step
	}{
		{"a stale duplicate after a newer report", []step{
			{Report{Seq: 1, Snap: g(map[string]float64{"g": 1})}, true},
			{Report{Seq: 2, Snap: g(map[string]float64{"g": 2})}, true},
			{Report{Seq: 3, Snap: g(map[string]float64{"g": 3})}, true},
			{Report{Seq: 2, Snap: g(map[string]float64{"g": 2})}, false},
		}},
		{"a fresh monitor meets a report mid-run", []step{
			{Report{Seq: 7, Snap: g(map[string]float64{"a": 2, "b": 1})}, true},
		}},
		{"the report after a lost one", []step{
			{Report{Seq: 1, Snap: g(map[string]float64{"a": 1, "b": 1})}, true},
			// Seq 2 {a: 2, b: 1} lost.
			{Report{Seq: 3, Snap: g(map[string]float64{"a": 2, "b": 2})}, true},
		}},
		{"a gauge goes 5, 7, 5 across a lost report", []step{
			{Report{Seq: 1, Snap: g(map[string]float64{"g": 5})}, true},
			{Report{Seq: 2, Snap: g(map[string]float64{"g": 7})}, true},
			// Seq 3 {g: 5} lost; the node's gauge does not move again.
			{Report{Seq: 4, Snap: g(map[string]float64{"g": 5})}, true},
		}},
		{"a restarted reporter starts over", []step{
			{Report{Boot: boot, Seq: 5, Snap: g(map[string]float64{"g": 1})}, true},
			{Report{Boot: reboot, Seq: 1, Snap: g(map[string]float64{"g": 2})}, true},
			{Report{Boot: reboot, Seq: 2, Snap: g(map[string]float64{"g": 3})}, true},
		}},
		{"a late report from the previous incarnation", []step{
			{Report{Boot: boot, Seq: 5, Snap: g(map[string]float64{"g": 1})}, true},
			{Report{Boot: reboot, Seq: 1, Snap: g(map[string]float64{"g": 2})}, true},
			{Report{Boot: boot, Seq: 6, Snap: g(map[string]float64{"g": 9})}, false},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := agent.NewPlatform("monitor")
			p.Clock = obs.NewFakeClock()
			defer p.Close()
			mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			var newest obs.Snapshot
			for i, st := range c.steps {
				st.rep.Node = "n"
				before := mon.Reports("n")
				mon.Ingest(st.rep)
				if applied := mon.Reports("n") > before; applied != st.applied {
					t.Fatalf("step %d (seq %d): applied=%v, want %v", i, st.rep.Seq, applied, st.applied)
				}
				if st.applied {
					newest = st.rep.Snap
				}
				snap, _ := mon.NodeSnapshot("n")
				if !reflect.DeepEqual(snap.Gauges, newest.Gauges) {
					t.Fatalf("step %d (seq %d): stored %v, want %v", i, st.rep.Seq, snap.Gauges, newest.Gauges)
				}
			}
		})
	}
}

func TestObservedTransportFeedsPartitionDecision(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// A degraded remote node: 12ms probe RTT, 10% probe loss.
	reg := obs.NewRegistry()
	for i := 0; i < 40; i++ {
		reg.Histogram(partition.SeriesTransportRTT).Observe(0.012)
	}
	reg.Counter(partition.SeriesTransportProbeSent).Add(40)
	reg.Counter(partition.SeriesTransportProbeLost).Add(4)
	mon.Ingest(Report{Node: "remote", Seq: 1, Snap: reg.Snapshot()})

	o, ok := mon.ObservedTransport("remote")
	if !ok {
		t.Fatal("remote unknown")
	}
	if o.AvgDeliverSec < 0.006 || o.AvgDeliverSec > 0.024 {
		t.Fatalf("AvgDeliverSec = %v, want ~0.012 (bucket-quantised)", o.AvgDeliverSec)
	}
	if o.DropRate != 0.1 {
		t.Fatalf("DropRate = %v, want 0.1", o.DropRate)
	}

	conf := partition.DefaultPlatform()
	dm := partition.NewDecisionMaker(partition.NewEstimator(conf))
	if _, ok := mon.Correct(dm, "remote"); !ok {
		t.Fatal("Correct failed")
	}
	if dm.Est.P.Net.HopDelay != o.AvgDeliverSec {
		t.Fatalf("HopDelay = %v, want %v", dm.Est.P.Net.HopDelay, o.AvgDeliverSec)
	}
	if dm.Est.P.Net.BandwidthBps >= conf.Net.BandwidthBps {
		t.Fatal("bandwidth not derated by measured drop")
	}

	// The same boundary workload E13 uses must flip once the measured
	// hop cost replaces the configured 2ms constant.
	f := partition.Features{Base: query.Aggregate, Selected: 40, AvgDepth: 4, MaxDepth: 6}
	dmConf := partition.NewDecisionMaker(partition.NewEstimator(conf))
	before, err := dmConf.Choose(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	after, err := dm.Choose(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if before.Model == after.Model {
		t.Fatalf("boundary decision did not flip (both %v)", before.Model)
	}
}

func TestObservedTransportFallsBackToDeliveryAccounting(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// No probe series: drop rate comes from the platform's delivery
	// accounting in the snapshot (90 delivered / 10 dead-lettered).
	mon.Ingest(Report{Node: "n", Seq: 1, Snap: obs.Snapshot{Counters: map[string]float64{
		"agent_delivered_total":                       90,
		`agent_dead_letter_total{reason="no_route"}`:  6,
		`agent_dead_letter_total{reason="link_down"}`: 4,
	}}})
	o, _ := mon.ObservedTransport("n")
	if o.DropRate != 0.1 {
		t.Fatalf("fallback DropRate = %v, want 0.1", o.DropRate)
	}
	if o.AvgDeliverSec != 0 {
		t.Fatalf("AvgDeliverSec = %v, want 0 (no histogram)", o.AvgDeliverSec)
	}
}

func TestTraceStitchingAcrossReportedSpans(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Two nodes report spans of the same conversation; the monitor must
	// stitch them into one timeline, in time order, node-tagged.
	id := obs.NewTraceID()
	t0 := clk.Now()
	mon.Ingest(Report{Node: "a", Seq: 1, Spans: []obs.Span{
		{Trace: id, Seq: 1, Time: t0, Node: "a", Kind: obs.SpanSend, From: "x", To: "y"},
		{Trace: id, Seq: 1, Time: t0.Add(time.Millisecond), Node: "a", Kind: obs.SpanRoute, From: "x", To: "y"},
	}})
	mon.Ingest(Report{Node: "b", Seq: 1, Spans: []obs.Span{
		{Trace: id, Seq: 1, Time: t0.Add(2 * time.Millisecond), Node: "b", Kind: obs.SpanIngress, From: "x", To: "y"},
		{Trace: id, Seq: 1, Time: t0.Add(3 * time.Millisecond), Node: "b", Kind: obs.SpanDeliver, From: "x", To: "y"},
	}})

	spans := mon.Tracer().Trace(id)
	if len(spans) != 4 {
		t.Fatalf("stitched %d spans, want 4", len(spans))
	}
	if spans[0].Node != "a" || spans[3].Node != "b" {
		t.Fatalf("stitched order wrong: %+v", spans)
	}
	tl := mon.Timeline(id)
	for _, want := range []string{"[a]", "[b]", "send", "ingress", "deliver"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
	if fv := mon.Fleet(); fv.Traces != 1 {
		t.Fatalf("fleet traces = %d, want 1", fv.Traces)
	}
}

// TestLostReportCostsOneInterval loses exactly one report between a
// reporter and its monitor. The uplink and the downlink are channels the
// test drains itself, and the clock never moves, so every hop happens when
// the test makes it: the report after the lost one must be applied, the
// monitor must then hold that report's snapshot series for series, and it
// must send nothing back.
func TestLostReportCostsOneInterval(t *testing.T) {
	clk := obs.NewFakeClock()
	np := agent.NewPlatform("node")
	np.Clock = clk
	defer np.Close()
	mp := agent.NewPlatform("monitor")
	mp.Clock = clk
	defer mp.Close()
	mon, err := RegisterMonitor(mp, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	up, down := make(chan agent.Envelope, 1), make(chan agent.Envelope, 1)
	np.AddRoute(func(env agent.Envelope) bool { up <- env; return true })
	mp.AddRoute(func(env agent.Envelope) bool { down <- env; return true })
	app := obs.NewRegistry()
	rep := StartReporter(np, ReporterOptions{Interval: time.Second, Sources: []obs.Source{app}})
	defer rep.Close()

	// deliver hands the next report to the monitor and returns it.
	deliver := func() Report {
		t.Helper()
		env := <-up
		mon.handle(env, nil)
		var r Report
		if err := env.Decode(&r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	reportNow := func() {
		t.Helper()
		if err := rep.ReportNow(); err != nil {
			t.Fatal(err)
		}
	}

	deliver() // the loop's announcement
	app.Gauge("g").Set(7)
	reportNow()
	<-up // lost
	app.Gauge("g").Set(5)
	app.Counter("c_total").Inc()
	reportNow()
	next := deliver()
	stored, _ := mon.NodeSnapshot("node")
	if !reflect.DeepEqual(stored, next.Snap) {
		t.Fatalf("monitor holds\n%+v\nthe report carried\n%+v", stored, next.Snap)
	}
	if stored.Gauges["g"] != 5 || stored.Counters["c_total"] != 1 {
		t.Fatalf("stored g=%v c_total=%v, want 5 and 1", stored.Gauges["g"], stored.Counters["c_total"])
	}
	if nv := mon.Fleet().Nodes[0]; nv.Missed != 1 || nv.Reports != 2 {
		t.Fatalf("missed=%d reports=%d, want 1 and 2", nv.Missed, nv.Reports)
	}
	select {
	case env := <-down:
		t.Fatalf("monitor sent %s %q downlink", env.Performative, env.Ontology)
	default:
	}
}

// TestMonitorRefusesReportsOverCaps: a report with more spans or events
// than a reporter ships is counted bad and dropped whole, so it cannot
// flush the other nodes' entries from the monitor's rings.
func TestMonitorRefusesReportsOverCaps(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	send := func(rep Report) {
		t.Helper()
		env, err := agent.NewEnvelope(agent.ID("telemetry-reporter-"+rep.Node), MonitorID, "inform", OntologyReport, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(env.Content) > reportMaxBytes {
			t.Fatalf("a %d-byte report is refused for its size, not its caps", len(env.Content))
		}
		mon.handle(env, nil)
	}
	t0 := clk.Now()
	send(Report{Node: "a", Seq: 1,
		Spans:  []obs.Span{{Trace: 1, Seq: 1, Time: t0, Node: "a", Kind: obs.SpanSend}},
		Events: []obs.Event{obs.NewEvent("a", 1, "x", "y", OntologyProbe, t0)}})

	events := make([]obs.Event, monitorEventCapacity+1)
	for i := range events {
		events[i] = obs.NewEvent("b", 2, "x", "y", OntologyProbe, t0)
	}
	send(Report{Node: "b", Seq: 1, Events: events})
	spans := make([]obs.Span, monitorTraceCapacity+1)
	for i := range spans {
		spans[i] = obs.Span{Trace: 2, Seq: 1, Time: t0, Node: "b", Kind: obs.SpanSend}
	}
	send(Report{Node: "b", Seq: 2, Spans: spans})

	kept := 0
	for _, ev := range mon.Events().Events() {
		if ev.Node == "a" {
			kept++
		}
	}
	if kept != 1 || len(mon.Tracer().Trace(1)) != 1 {
		t.Fatalf("node a's event kept %d times, its span %d times; want both once", kept, len(mon.Tracer().Trace(1)))
	}
	if n := p.Metrics().Counter("telemetry_bad_reports_total").Value(); n != 2 {
		t.Fatalf("telemetry_bad_reports_total = %v, want 2", n)
	}
	if mon.Reports("b") != 0 {
		t.Fatalf("node b's over-cap reports were ingested")
	}
}

// Reports returns the total report count for one node (0 if unknown).
func (m *Monitor) Reports(node string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ns := m.nodes[node]; ns != nil {
		return ns.reports
	}
	return 0
}

// Health returns a node's current health (Down for unknown nodes).
func (m *Monitor) Health(node string) Health {
	now := m.clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := m.nodes[node]
	if ns == nil {
		return Down
	}
	return m.health(now.Sub(ns.lastSeen))
}

// NodeSnapshot returns the newest reported metric snapshot of one node
// and whether the node is known.
func (m *Monitor) NodeSnapshot(node string) (obs.Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := m.nodes[node]
	if ns == nil {
		return obs.Snapshot{}, false
	}
	return ns.snap.Clone(), true
}

// Seq returns how many reports have been sent.
func (r *Reporter) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
