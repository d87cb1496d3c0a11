package telemetry

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
)

func TestHandlerEndpoints(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("monitor")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	reg := obs.NewRegistry()
	reg.Counter("c_total").Add(3)
	id := obs.NewTraceID()
	mon.Ingest(Report{Node: "n1", Seq: 1, Snap: reg.Snapshot(),
		Spans: []obs.Span{{Trace: id, Time: clk.Now(), Node: "n1", Kind: obs.SpanSend, From: "a", To: "b"}}})

	extra := obs.NewRegistry()
	extra.Gauge("local_gauge").Set(7)
	h := Handler(mon, extra)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	// /metrics merges the fleet view (node-labeled) with extra sources.
	if body := get("/metrics").Body.String(); !strings.Contains(body, `c_total{node="n1"} 3`) ||
		!strings.Contains(body, "local_gauge 7") {
		t.Fatalf("/metrics missing merged series:\n%s", body)
	}
	if body := get("/metrics.json").Body.String(); !strings.Contains(body, "c_total") {
		t.Fatalf("/metrics.json missing series: %s", body)
	}
	if rec := get("/fleet.json"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"n1"`) {
		t.Fatalf("/fleet.json = %d %s", rec.Code, rec.Body.String())
	}
	if rec := get("/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz = %d, want 200", rec.Code)
	}
	if body := get("/traces").Body.String(); !strings.Contains(body, "1 spans") {
		t.Fatalf("/traces = %q", body)
	}
	tracePath := "/trace?id=" + strings.Fields(get("/traces").Body.String())[0]
	if body := get(tracePath).Body.String(); !strings.Contains(body, "send") {
		t.Fatalf("trace timeline = %q", body)
	}
	if rec := get("/trace?id=zzz"); rec.Code != 400 {
		t.Fatalf("bad trace id = %d, want 400", rec.Code)
	}

	// Staleness past the down threshold flips /healthz.
	clk.Advance(9 * time.Second)
	if rec := get("/healthz"); rec.Code != 503 {
		t.Fatalf("/healthz = %d after 9s staleness, want 503", rec.Code)
	}
}

func TestMonitorRejectsMalformedReports(t *testing.T) {
	p := agent.NewPlatform("monitor")
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// A report envelope whose body is not a Report must be counted and
	// dropped, not ingested or crashed on.
	env, err := agent.NewEnvelope("rogue", MonitorID, "inform", OntologyReport, "not-a-report")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send(env); err != nil {
		t.Fatal(err)
	}
	// A non-report ontology is ignored entirely.
	env2, err := agent.NewEnvelope("rogue", MonitorID, "inform", "unrelated", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send(env2); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "bad report counted", func() bool {
		return p.Metrics().Snapshot().Counters["telemetry_bad_reports_total"] >= 1
	})
	if n := len(mon.Fleet().Nodes); n != 0 {
		t.Fatalf("malformed report created %d node(s)", n)
	}
}

func TestReporterIdentity(t *testing.T) {
	p := agent.NewPlatform("node-x")
	defer p.Close()
	if _, err := RegisterMonitor(p, MonitorOptions{}); err != nil {
		t.Fatal(err)
	}
	rep, err := StartReporter(p, ReporterOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if rep.id != "telemetry-reporter-node-x" {
		t.Fatalf("reporter id = %q (must be fleet-unique)", rep.id)
	}
	waitFor(t, "announce report", func() bool { return rep.Seq() >= 1 })
}

// TestTraceShowsFailedUnsampledConversation: a conversation that times out
// on a node sampling 1% of traces keeps no spans, but GET /trace?id= on
// the monitor still explains it, from the wide event the node reported.
func TestTraceShowsFailedUnsampledConversation(t *testing.T) {
	p := agent.NewPlatform("node-1")
	defer p.Close()
	smp := obs.NewSampler(0.01)
	p.Tracer = obs.NewTracer(64)
	p.Tracer.SetSampler(smp)
	p.Events = obs.NewEventLog(64)
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	silent := agent.HandlerFunc(func(agent.Envelope, *agent.Context) {}) // never replies
	if err := p.Register("silent", silent, agent.Attributes{}, nil); err != nil {
		t.Fatal(err)
	}
	policy := agent.RetryPolicy{MaxAttempts: 2, AttemptTimeout: 10 * time.Millisecond, BaseDelay: time.Millisecond}
	if _, err := agent.CallRetry(p, "silent", "request", "ping", nil, time.Second, policy); !errors.Is(err, agent.ErrCallTimeout) {
		t.Fatalf("CallRetry to a silent agent = %v, want a timeout", err)
	}
	var trace uint64
	for _, ev := range p.Events.Events() {
		if ev.To == "silent" {
			trace = ev.Trace
		}
	}
	if trace == 0 {
		t.Fatal("the timed-out conversation emitted no wide event")
	}
	rep, err := StartReporter(p, ReporterOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	waitFor(t, "the event at the monitor", func() bool { return len(mon.Events().Events()) > 0 })

	rec := httptest.NewRecorder()
	Handler(mon).ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/trace?id=%016x", trace), nil))
	body := rec.Body.String()
	for _, want := range []string{"event [node-1]", "-> silent", " timeout ", "retries=1", "attempt-1=", "attempt-2="} {
		if !strings.Contains(body, want) {
			t.Fatalf("/trace?id=%016x lacks %q:\n%s", trace, want, body)
		}
	}
	if !smp.Sampled(trace) && !strings.Contains(body, "(0 spans)") {
		t.Fatalf("an unsampled trace kept spans:\n%s", body)
	}
}
