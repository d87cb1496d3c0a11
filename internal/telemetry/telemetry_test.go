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
	// onto the stored view without losing the untouched series. The
	// reporter must be parked on the clock before it moves, or the
	// advance skips its tick.
	app.Counter("app_things_total").Add(5)
	waitFor(t, "reporter parked on the clock", func() bool { return clk.Waiters() >= 1 })
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
	mon.Ingest(Report{Node: "n", Seq: 2, Base: 1, Snap: obs.Snapshot{}})
	// Reports 3 and 4 lost in transit; 5 is refused, its base unseen.
	mon.Ingest(Report{Node: "n", Seq: 5, Base: 4, Snap: obs.Snapshot{}})
	// The refusal's reply made the reporter's next report full.
	mon.Ingest(Report{Node: "n", Seq: 6, Snap: full})
	// A duplicated envelope replays an old seq: stale, so not counted.
	mon.Ingest(Report{Node: "n", Seq: 5, Base: 4, Snap: obs.Snapshot{}})

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

// gauges builds a snapshot holding only the given gauges.
func gauges(kv map[string]float64) obs.Snapshot { return obs.Snapshot{Gauges: kv} }

// TestIngestAppliesOnlyADeltaItsBaseHolds drives Ingest through the report
// sequences a lossy uplink produces. A report a step leaves out was lost in
// transit. After every step the stored view must be one the node really
// held: the newest applied report's, never a mix.
func TestIngestAppliesOnlyADeltaItsBaseHolds(t *testing.T) {
	type step struct {
		rep     Report
		refused bool
		held    uint64 // the seq a refusal names
		want    map[string]float64
	}
	boot := obs.NewFakeClock().Now()
	reboot := boot.Add(time.Minute)
	cases := []struct {
		name  string
		steps []step
	}{
		{"a stale duplicate after a newer report", []step{
			{rep: Report{Seq: 1, Snap: gauges(map[string]float64{"g": 1})},
				want: map[string]float64{"g": 1}},
			{rep: Report{Seq: 2, Base: 1, Snap: gauges(map[string]float64{"g": 2})},
				want: map[string]float64{"g": 2}},
			{rep: Report{Seq: 3, Base: 2, Snap: gauges(map[string]float64{"g": 3})},
				want: map[string]float64{"g": 3}},
			{rep: Report{Seq: 2, Base: 1, Snap: gauges(map[string]float64{"g": 2})},
				want: map[string]float64{"g": 3}},
		}},
		{"a fresh monitor meets a delta", []step{
			{rep: Report{Seq: 7, Base: 6, Snap: gauges(map[string]float64{"a": 2})},
				refused: true, held: 0, want: map[string]float64{}},
			{rep: Report{Seq: 8, Snap: gauges(map[string]float64{"a": 2, "b": 1})},
				want: map[string]float64{"a": 2, "b": 1}},
		}},
		{"the delta after a lost report", []step{
			{rep: Report{Seq: 1, Snap: gauges(map[string]float64{"a": 1, "b": 1})},
				want: map[string]float64{"a": 1, "b": 1}},
			// Seq 2 {a: 2} lost.
			{rep: Report{Seq: 3, Base: 2, Snap: gauges(map[string]float64{"b": 2})},
				refused: true, held: 1, want: map[string]float64{"a": 1, "b": 1}},
			{rep: Report{Seq: 4, Snap: gauges(map[string]float64{"a": 2, "b": 2})},
				want: map[string]float64{"a": 2, "b": 2}},
		}},
		{"a gauge goes 5, 7, 5 across a lost report", []step{
			{rep: Report{Seq: 1, Snap: gauges(map[string]float64{"g": 5})},
				want: map[string]float64{"g": 5}},
			{rep: Report{Seq: 2, Base: 1, Snap: gauges(map[string]float64{"g": 7})},
				want: map[string]float64{"g": 7}},
			// Seq 3 {g: 5} lost; the node's gauge does not move again.
			{rep: Report{Seq: 4, Base: 3, Snap: gauges(map[string]float64{})},
				refused: true, held: 2, want: map[string]float64{"g": 7}},
			// The refusal is lost too: the next delta is refused again.
			{rep: Report{Seq: 5, Base: 4, Snap: gauges(map[string]float64{})},
				refused: true, held: 2, want: map[string]float64{"g": 7}},
			{rep: Report{Seq: 6, Snap: gauges(map[string]float64{"g": 5})},
				want: map[string]float64{"g": 5}},
		}},
		{"a restarted reporter starts over", []step{
			{rep: Report{Boot: boot, Seq: 5, Snap: gauges(map[string]float64{"g": 1})},
				want: map[string]float64{"g": 1}},
			{rep: Report{Boot: reboot, Seq: 1, Snap: gauges(map[string]float64{"g": 2})},
				want: map[string]float64{"g": 2}},
			{rep: Report{Boot: reboot, Seq: 2, Base: 1, Snap: gauges(map[string]float64{"g": 3})},
				want: map[string]float64{"g": 3}},
			// A late report from the previous incarnation is stale.
			{rep: Report{Boot: boot, Seq: 6, Base: 5, Snap: gauges(map[string]float64{"g": 9})},
				want: map[string]float64{"g": 3}},
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
			for i, st := range c.steps {
				st.rep.Node = "n"
				held, refused := mon.Ingest(st.rep)
				if refused != st.refused || (refused && held != st.held) {
					t.Fatalf("step %d (seq %d base %d): refused=%v held=%d, want refused=%v held=%d",
						i, st.rep.Seq, st.rep.Base, refused, held, st.refused, st.held)
				}
				snap, _ := mon.NodeSnapshot("n")
				if !reflect.DeepEqual(snap.Gauges, st.want) {
					t.Fatalf("step %d (seq %d base %d): stored %v, want %v",
						i, st.rep.Seq, st.rep.Base, snap.Gauges, st.want)
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

// TestLostReportIsRefusedThenResentFull loses exactly one report between a
// reporter and its monitor. The uplink and the downlink are channels the
// test drains itself, and the clock never moves, so every hop happens when
// the test makes it: the report after the lost one must be refused and
// answered, the one after that must be full, and the monitor must then hold
// the node's snapshot series for series.
func TestLostReportIsRefusedThenResentFull(t *testing.T) {
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
	rep, err := StartReporter(np, ReporterOptions{Interval: time.Second, Sources: []obs.Source{app}})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	// deliver hands the next report to the monitor and returns it with the
	// monitor's reply, if it sent one.
	deliver := func() (Report, *agent.Envelope) {
		t.Helper()
		env := <-up
		mon.handle(env, nil)
		var r Report
		if err := env.Decode(&r); err != nil {
			t.Fatal(err)
		}
		select {
		case reply := <-down:
			return r, &reply
		default:
			return r, nil
		}
	}
	reportNow := func() {
		t.Helper()
		if err := rep.ReportNow(); err != nil {
			t.Fatal(err)
		}
	}

	first, reply := deliver() // the loop's announcement
	if first.Base != 0 || reply != nil {
		t.Fatalf("first report base=%d reply=%v, want a full report applied", first.Base, reply)
	}
	app.Gauge("g").Set(7)
	reportNow()
	<-up // lost
	app.Gauge("g").Set(5)
	app.Counter("c_total").Inc()
	reportNow()
	refused, reply := deliver()
	if refused.Base != first.Seq+1 || reply == nil {
		t.Fatalf("report after the lost one: base=%d reply=%v, want base %d refused", refused.Base, reply, first.Seq+1)
	}
	var held uint64
	if err := reply.Decode(&held); err != nil || held != first.Seq || reply.To != rep.id {
		t.Fatalf("refusal to %s names seq %d (%v), want %s and seq %d", reply.To, held, err, rep.id, first.Seq)
	}
	rep.handle(*reply, nil)

	reportNow()
	full, reply := deliver()
	if full.Base != 0 || reply != nil {
		t.Fatalf("report after the refusal: base=%d reply=%v, want a full report applied", full.Base, reply)
	}
	stored, _ := mon.NodeSnapshot("node")
	rep.mu.Lock()
	node := rep.last
	rep.mu.Unlock()
	if !reflect.DeepEqual(stored, node) {
		t.Fatalf("monitor holds\n%+v\nnode holds\n%+v", stored, node)
	}
	if nv := mon.Fleet().Nodes[0]; nv.Missed != 1 || nv.Reports != 3 {
		t.Fatalf("missed=%d reports=%d, want 1 and 3", nv.Missed, nv.Reports)
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
