package telemetry

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

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

// TestTracesPageCopiesTheRingOnce: with the monitor's ring full and
// wrapped, 4 096 traces of two spans each, /traces lists every ID in
// first-seen order with its span count, and serving it allocates a few
// copies of the ring's worth of memory, not one copy per trace.
func TestTracesPageCopiesTheRingOnce(t *testing.T) {
	p := agent.NewPlatform("monitor")
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	const traces = monitorTraceCapacity / 2
	const first = 1001 // the traces before it were evicted
	now := time.Now()
	for i := range 2 * (first - 1 + traces) {
		mon.Tracer().Record(obs.Span{Trace: uint64(i/2 + 1), Seq: uint64(i), Time: now, Node: "n1", Kind: obs.SpanSend})
	}
	var want strings.Builder
	for id := first; id < first+traces; id++ {
		fmt.Fprintf(&want, "%016x (2 spans)\n", id)
	}

	h := Handler(mon)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	runtime.ReadMemStats(&after)
	if got := rec.Body.String(); got != want.String() {
		t.Fatalf("/traces is %d bytes, want %d: starts %q", len(got), want.Len(), got[:min(len(got), 80)])
	}
	ring := uint64(monitorTraceCapacity) * uint64(unsafe.Sizeof(obs.Span{}))
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 4*ring {
		t.Fatalf("/traces allocated %d bytes, %.1f copies of the %d-byte ring", spent, float64(spent)/float64(ring), ring)
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
	rep := StartReporter(p, ReporterOptions{Interval: time.Hour})
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
	rep := StartReporter(p, ReporterOptions{Interval: time.Hour})
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

// TestFleetMetricsNeverRepeatALabel: a monitor host that reports to
// itself ships its own telemetry_* series, which the fleet merge labels
// node="<host>". No key served on /metrics may then name one label
// twice, or a Prometheus scrape rejects the sample.
func TestFleetMetricsNeverRepeatALabel(t *testing.T) {
	host := agent.NewPlatform("monitor-host")
	defer host.Close()
	mon, err := RegisterMonitor(host, MonitorOptions{Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	gw, err := agent.ListenAndServe(host, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	self := StartReporter(host, ReporterOptions{Interval: time.Hour})
	defer self.Close()

	remote := agent.NewPlatform("node-2")
	defer remote.Close()
	link := agent.DialReconnect(remote, gw.Addr(), agent.ReconnectOptions{})
	defer link.Close()
	rep := StartReporter(remote, ReporterOptions{Interval: time.Hour})
	defer rep.Close()

	// The host's report must carry the count of node-2's reports, so
	// report again until the merged view holds it.
	waitFor(t, "the host's self-report counting node-2", func() bool {
		_ = rep.ReportNow()
		_ = self.ReportNow()
		for key := range mon.Snapshot().Counters {
			if strings.HasPrefix(key, "telemetry_reports_total{") && strings.Contains(key, `"node-2"`) &&
				strings.HasSuffix(key, `node="monitor-host"}`) {
				return true
			}
		}
		return false
	})

	rec := httptest.NewRecorder()
	Handler(mon, host.Metrics()).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seen := map[string]bool{}
		for _, name := range labelNames(t, line) {
			if seen[name] {
				t.Errorf("label %q repeats in %s", name, line)
			}
			seen[name] = true
		}
	}
}

// labelNames parses the label names of one exposition line,
// `name{a="x",b="y"} 1`, honouring escaped quotes in values.
func labelNames(t *testing.T, line string) []string {
	open := strings.IndexByte(line, '{')
	if open < 0 || open > strings.IndexByte(line, ' ') {
		return nil
	}
	var names []string
	rest := line[open+1:]
	for rest != "" && rest[0] != '}' {
		eq := strings.Index(rest, `="`)
		if eq < 0 {
			t.Fatalf("unparsable labels in %s", line)
		}
		names = append(names, strings.TrimPrefix(rest[:eq], ","))
		i := eq + 2
		for ; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] == '\\' {
				i++
			}
		}
		if i >= len(rest) {
			t.Fatalf("unterminated label value in %s", line)
		}
		rest = rest[i+1:]
	}
	return names
}
