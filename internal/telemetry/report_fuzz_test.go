package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
)

// A report envelope may cost the monitor at most reportAllocPerByte heap
// bytes per content byte, plus reportAllocFixed for its bookkeeping (the
// node's state and the metric series). The worst case is an array of
// empty objects: each "{}," decodes to a ~230-byte
// obs.Event, and the decoder's slice growth allocates about four times
// the final slice, which measures ~330 bytes per content byte. Content
// over reportMaxBytes is refused undecoded, so it costs at most
// reportAllocFixed.
const (
	reportAllocPerByte = 512
	reportAllocFixed   = 64 << 10
)

// FuzzReport: the monitor's envelope decode plus Ingest never panics and
// allocates within the stated bound for any content, and every report it
// accepts re-encodes to itself. Each input meets the same monitor state: a
// node "n" whose stored snapshot came from report 5.
func FuzzReport(f *testing.F) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	f.Cleanup(p.Close)
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		f.Fatal(err)
	}
	boot := clk.Now()
	snap := func(g float64) obs.Snapshot {
		return obs.Snapshot{Counters: map[string]float64{"c_total": 3},
			Gauges:     map[string]float64{"g": g},
			Histograms: map[string]obs.HistogramSnapshot{"h_seconds": {Count: 2, Sum: 0.5, Max: 0.4}}}
	}
	prior := Report{Node: "n", Boot: boot, Seq: 5, Snap: snap(1), SentAt: boot}
	for _, r := range []Report{
		{Node: "n", Boot: boot, Seq: 6, Snap: snap(2), SentAt: boot,
			Spans:  []obs.Span{{Trace: 7, Seq: 1, Time: boot, Node: "n", Kind: obs.SpanSend}},
			Events: []obs.Event{obs.NewEvent("n", 7, "a", "b", OntologyProbe, boot)}}, // the next report
		{Node: "n", Boot: boot, Seq: 7, Snap: obs.Snapshot{Gauges: map[string]float64{"g": 3}}}, // one lost before it
		{Node: "n", Boot: boot, Seq: 4, Snap: snap(0)},                                          // stale
		{Node: "n", Boot: boot, Seq: 5, Snap: snap(1)},                                          // a duplicate
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A 4 MiB frame: a report whose events are empty objects, the
	// costliest content per byte.
	huge := []byte(`{"node":"n","seq":6,"events":[{}`)
	for len(huge) < 4<<20-2 {
		huge = append(huge, ",{}"...)
	}
	f.Add(append(huge, "]}"...))
	f.Fuzz(func(t *testing.T, data []byte) {
		mon.mu.Lock()
		mon.nodes = map[string]*nodeState{}
		mon.mu.Unlock()
		mon.Ingest(prior)
		env := agent.Envelope{Seq: 1, From: "telemetry-reporter-n", To: MonitorID, Performative: "inform",
			ContentType: "application/json", Ontology: OntologyReport, Content: data}

		bad := p.Metrics().Counter("telemetry_bad_reports_total")
		badBefore := bad.Value()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mon.handle(env, nil)
		runtime.ReadMemStats(&after)
		limit := uint64(reportAllocPerByte*len(data) + reportAllocFixed)
		if len(data) > reportMaxBytes {
			limit = reportAllocFixed
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > limit {
			t.Fatalf("a %d-byte report allocated %d bytes, past %d", len(data), n, limit)
		}
		if len(data) > reportMaxBytes {
			if bad.Value() != badBefore+1 {
				t.Fatalf("a %d-byte report was not counted bad", len(data))
			}
			return
		}

		var rep Report
		if env.Decode(&rep) != nil || rep.Node == "" {
			return // counted as a bad report
		}
		over := len(rep.Spans) > reportMaxSpans || len(rep.Events) > reportMaxEvents
		if counted := bad.Value() == badBefore+1; counted != over {
			t.Fatalf("a report of %d spans and %d events: counted bad = %v", len(rep.Spans), len(rep.Events), counted)
		}
		enc, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report does not encode: %v", err)
		}
		var again Report
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("accepted report does not decode after encoding: %v", err)
		}
		if re, _ := json.Marshal(again); !bytes.Equal(re, enc) {
			t.Fatalf("accepted report changed in a round trip:\n%s\n%s", enc, re)
		}
	})
}

// TestLargestReportFitsTheBound: every report carries its node's full
// snapshot, so the bound must hold the largest one as well as the span and
// event caps. A node hosting 2 000 provider agents has one
// agent_mailbox_depth gauge per agent, the only per-agent series; with
// reportMaxSpans spans and reportMaxEvents events at the longest sizes
// measured on a -recompose node (203 and 376 bytes) the report must stay
// under reportMaxBytes.
func TestLargestReportFitsTheBound(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("node-with-a-long-name")
	defer p.Close()
	obs.CaptureRuntime(p.Metrics())
	for i := 0; i < 2000; i++ {
		p.Metrics().Gauge("agent_mailbox_depth", "agent", fmt.Sprintf("provider-%04d", i)).Set(float64(i % 64))
	}
	snap := p.MetricsSnapshot()
	snapBytes, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}

	// padTo grows one string field of v until v encodes to exactly n bytes.
	padTo := func(n int, field *string, v any) {
		t.Helper()
		for {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) >= n {
				if len(b) != n {
					t.Fatalf("padded to %d bytes, want %d", len(b), n)
				}
				return
			}
			*field += "x"
		}
	}
	t0 := clk.Now()
	span := obs.Span{Trace: 1 << 63, Seq: 1 << 40, Time: t0, Node: p.Name, Kind: obs.SpanDeliver,
		From: "composition-engine", To: "provider-0000"}
	padTo(203, &span.Note, &span)
	event := obs.NewEvent(p.Name, 1<<63, "composition-engine", "provider-0000", OntologyProbe, t0)
	event.Finish(obs.OutcomeOK, t0.Add(time.Millisecond))
	padTo(376, &event.Err, &event)
	spans := make([]obs.Span, reportMaxSpans)
	for i := range spans {
		spans[i] = span
	}
	events := make([]obs.Event, reportMaxEvents)
	for i := range events {
		events[i] = event
	}

	env, err := agent.NewEnvelope("telemetry-reporter-"+agent.ID(p.Name), MonitorID, "inform", OntologyReport,
		Report{Node: p.Name, Boot: t0, Seq: 1 << 40, Snap: snap, Spans: spans, Events: events, SentAt: t0})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot of %d series: %d bytes; report: %d bytes of %d", snap.Len(), len(snapBytes), len(env.Content), reportMaxBytes)
	if len(env.Content) >= reportMaxBytes {
		t.Fatalf("the largest report encodes to %d bytes, past the %d-byte bound", len(env.Content), reportMaxBytes)
	}
}
