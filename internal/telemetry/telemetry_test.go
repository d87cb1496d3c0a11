package telemetry

import (
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

func TestReporterShipsDeltasToLocalMonitor(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("node-a")
	p.Clock = clk
	defer p.Close()

	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	app := obs.NewRegistry()
	rep, err := StartReporter(p, ReporterOptions{
		Interval: time.Second,
		Sources:  []obs.Source{app},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// The reporter announces itself immediately (full snapshot).
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

	// Change one app series; the next report is a delta that must merge
	// onto the stored view without losing the untouched series.
	app.Counter("app_things_total").Add(5)
	clk.Advance(time.Second)
	waitFor(t, "second report", func() bool { return mon.Reports("node-a") >= 2 })
	snap, _ = mon.NodeSnapshot("node-a")
	if snap.Counters["app_things_total"] != 5 {
		t.Fatalf("delta did not merge: %v", snap.Counters)
	}
	if snap.Gauges["runtime_goroutines"] < 1 {
		t.Fatalf("delta merge lost prior series: %v", snap.Gauges)
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
	rep, err := StartReporter(p, ReporterOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
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
	rep2, err := StartReporter(p, ReporterOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	waitFor(t, "recovery report", func() bool { return mon.Health("node-b") == Healthy })
}

func TestMonitorCountsSeqGapsAndResyncs(t *testing.T) {
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
	mon.Ingest(Report{Node: "n", Seq: 1, Full: true, Snap: full})
	mon.Ingest(Report{Node: "n", Seq: 2, Snap: obs.Snapshot{}})
	// Reports 3 and 4 lost in transit.
	mon.Ingest(Report{Node: "n", Seq: 5, Snap: obs.Snapshot{}})
	// The reporter noticed a failure and resynced with a full snapshot.
	mon.Ingest(Report{Node: "n", Seq: 6, Full: true, Snap: full})
	// A duplicated envelope replays an old seq; must not corrupt counts.
	mon.Ingest(Report{Node: "n", Seq: 5, Snap: obs.Snapshot{}})

	fv := mon.Fleet()
	if len(fv.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(fv.Nodes))
	}
	nv := fv.Nodes[0]
	if nv.Missed != 2 {
		t.Fatalf("missed = %d, want 2", nv.Missed)
	}
	if nv.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", nv.Resyncs)
	}
	if nv.Seq != 6 {
		t.Fatalf("seq = %d, want 6", nv.Seq)
	}
	if nv.Reports != 5 {
		t.Fatalf("reports = %d, want 5", nv.Reports)
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
	mon.Ingest(Report{Node: "remote", Seq: 1, Full: true, Snap: reg.Snapshot()})

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
	// accounting (90 delivered / 10 dropped).
	mon.Ingest(Report{Node: "n", Seq: 1, Full: true, Snap: obs.Snapshot{},
		Delivered: 90, Dropped: 10})
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
	mon.Ingest(Report{Node: "a", Seq: 1, Full: true, Spans: []obs.Span{
		{Trace: id, Seq: 1, Time: t0, Node: "a", Kind: obs.SpanSend, From: "x", To: "y"},
		{Trace: id, Seq: 1, Time: t0.Add(time.Millisecond), Node: "a", Kind: obs.SpanRoute, From: "x", To: "y"},
	}})
	mon.Ingest(Report{Node: "b", Seq: 1, Full: true, Spans: []obs.Span{
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

// TestSeqGapTriggersFullResyncAtLoadRates runs the silent-loss scenario
// at load-harness rates: a node doing thousands of local deliveries per
// virtual second keeps reporting into a partitioned uplink (the injector
// drops silently, so the reporter believes every delta arrived and its
// delta base keeps advancing). After the heal, the series that changed
// only during the blackout are stale on the monitor forever — unless the
// monitor notices the seq gap and requests a full resync, which is the
// contract under test.
func TestSeqGapTriggersFullResyncAtLoadRates(t *testing.T) {
	clk := obs.NewFakeClock()
	f := startTestFleet(t, clk, 1)
	node := f.Nodes[0]
	advanceAndSettle(t, clk, f, 0)

	// Blackout: five report intervals of heavy local traffic, every
	// report silently dropped on the uplink.
	f.Nodes[0].Injector.SetPartitioned(true)
	repBaseline := node.Reporter.Seq()
	for i := 0; i < 5; i++ {
		node.Work(2000)
		clk.Advance(time.Second)
		seqTarget := repBaseline + uint64(i+1)
		waitFor(t, "blackout report attempt", func() bool {
			return node.Reporter.Seq() >= seqTarget
		})
		waitParked(t, clk, f)
	}
	// The deliver histogram moved only during the blackout; nothing
	// after the heal touches it (reporter traffic leaves over the link,
	// not through a local mailbox).
	liveCount := node.Platform.MetricsSnapshot().Histograms["agent_deliver_latency_seconds"].Count

	// Heal. The first post-heal delta exposes the seq gap; the monitor
	// must request a resync and the next report must be full.
	f.Nodes[0].Injector.SetPartitioned(false)
	advanceAndSettle(t, clk, f, 0)
	waitFor(t, "monitor-side resync after seq gap", func() bool {
		clk.Advance(time.Second)
		for _, nv := range f.Monitor.Fleet().Nodes {
			if nv.Node == node.Name {
				return nv.Missed >= 1 && nv.Resyncs >= 1
			}
		}
		return false
	})
	snap, ok := f.Monitor.NodeSnapshot(node.Name)
	if !ok {
		t.Fatalf("node %s unknown to monitor", node.Name)
	}
	// The resync control envelope is itself one more local delivery on
	// the node, so the stored count may run slightly ahead of the
	// pre-heal capture — what matters is that the ~10k blackout-era
	// samples are not missing.
	got := snap.Histograms["agent_deliver_latency_seconds"].Count
	if got < liveCount {
		t.Fatalf("stored deliver count = %d, want >= %d (the blackout-era samples must arrive via the full resync)", got, liveCount)
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
	now := m.opts.Clock.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	ns := m.nodes[node]
	if ns == nil {
		return Down
	}
	return m.health(now.Sub(ns.lastSeen))
}

// NodeSnapshot returns the reconstructed full metric snapshot of one
// node and whether the node is known.
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
