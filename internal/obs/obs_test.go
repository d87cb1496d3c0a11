package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total")
	c.Inc()
	c.Add(2.5)
	c.Add(-10) // ignored: counters are monotone
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if r.Counter("events_total") != c {
		t.Fatal("same name should return same counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %v, want 4", got)
	}
}

func TestLabelCanonicalisation(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "route", "1", "dir", "out")
	b := r.Counter("hits_total", "dir", "out", "route", "1")
	if a != b {
		t.Fatal("label order should not split a series")
	}
	a.Inc()
	snap := r.Snapshot()
	key := `hits_total{dir="out",route="1"}`
	if snap.Counters[key] != 1 {
		t.Fatalf("snapshot missing %s: %v", key, snap.Counters)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds")
	// 1..1000 ms uniform: p50 ~ 0.5s, p99 ~ 0.99s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 < 0.25 || p50 > 0.75 {
		t.Fatalf("p50 = %v, want ~0.5 (bucketed)", p50)
	}
	if p99 < 0.5 || p99 > 1.0 {
		t.Fatalf("p99 = %v, want ~0.99 (bucketed)", p99)
	}
	if p99 < p50 {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	snap := r.Snapshot().Histograms["latency_seconds"]
	if snap.Min != 0.001 || snap.Max != 1.0 {
		t.Fatalf("min/max = %v/%v, want 0.001/1", snap.Min, snap.Max)
	}
	if snap.Sum < 500 || snap.Sum > 501 {
		t.Fatalf("sum = %v, want ~500.5", snap.Sum)
	}
}

func TestHistogramOverflowAndEmpty(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v", q)
	}
	h.Observe(1e12) // beyond the last octave
	if q := h.Quantile(0.99); q != 1e12 {
		t.Fatalf("overflow quantile = %v, want max", q)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Histogram("z").Observe(1)
	if q := r.Histogram("z").Quantile(0.5); q != 0 {
		t.Fatalf("nil histogram quantile = %v", q)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestPromExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "k", "v").Add(2)
	r.Gauge("b").Set(1.5)
	r.Histogram("c_seconds").Observe(0.01)
	var b strings.Builder
	WriteProm(&b, r.Snapshot())
	out := b.String()
	for _, want := range []string{
		`a_total{k="v"} 2`,
		"b 1.5",
		`c_seconds_count{} 1`,
		`c_seconds_sum{} 0.01`,
	} {
		// histograms without labels have no brace part
		want = strings.ReplaceAll(want, "{}", "")
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if !strings.Contains(b.String(), "hits_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", b.String())
	}

	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Counters["hits_total"] != 1 {
		t.Fatalf("/metrics.json = %+v", snap)
	}
}

func TestTraceIDsUniqueAndNonZero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == 0 {
			t.Fatal("zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x", id)
		}
		seen[id] = true
	}
}

func TestTracerRingAndTimeline(t *testing.T) {
	tr := NewTracer(4)
	id := NewTraceID()
	base := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 6; i++ {
		tr.Record(Span{Trace: id, Seq: uint64(i), Time: base.Add(time.Duration(i) * time.Millisecond),
			Node: "n", Kind: SpanSend, From: "a", To: "b"})
	}
	if got := tr.sampled.Value(); got != 6 {
		t.Fatalf("sampled = %v", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring retained %d, want 4", len(spans))
	}
	if spans[0].Seq != 2 || spans[3].Seq != 5 {
		t.Fatalf("ring order wrong: %+v", spans)
	}
	tl := tr.Timeline(id)
	if !strings.Contains(tl, "(4 spans)") || !strings.Contains(tl, "send") {
		t.Fatalf("timeline:\n%s", tl)
	}
	var nilT *Tracer
	nilT.Record(Span{}) // must not panic
	if spans, total := nilT.Since(0, 10); total != 0 || spans != nil || len(nilT.Spans()) != 0 {
		t.Fatal("nil tracer should be empty")
	}
}

func TestFakeClockAdvance(t *testing.T) {
	fc := NewFakeClock()
	ch := fc.After(100 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fired before advance")
	default:
	}
	fc.Advance(50 * time.Millisecond)
	select {
	case <-ch:
		t.Fatal("fired early")
	default:
	}
	fc.Advance(50 * time.Millisecond)
	select {
	case <-ch:
	case <-time.After(time.Second):
		t.Fatal("did not fire after advance")
	}
	if fc.Waiters() != 0 {
		t.Fatalf("waiters = %d", fc.Waiters())
	}
}

func TestFakeClockAutoAdvance(t *testing.T) {
	fc := NewFakeClock()
	stop := fc.AutoAdvance()
	defer stop()
	start := fc.Now()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			fc.Sleep(250 * time.Millisecond)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("auto-advance did not drive sleeps")
	}
	if got := fc.Now().Sub(start); got != 5*250*time.Millisecond {
		t.Fatalf("fake time advanced %v, want 1.25s", got)
	}
}
