package obs

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// pickTraces returns one trace ID the sampler admits and one it drops,
// scanning NewTraceID-shaped IDs so tests stay valid if the hash changes.
func pickTraces(t *testing.T, smp *Sampler) (in, out uint64) {
	t.Helper()
	for id := uint64(1); id < 1<<16; id++ {
		if smp.Sampled(id) {
			if in == 0 {
				in = id
			}
		} else if out == 0 {
			out = id
		}
		if in != 0 && out != 0 {
			return in, out
		}
	}
	t.Fatal("could not find both a sampled and an unsampled trace ID")
	return 0, 0
}

func TestSamplerDeterministicAndClamped(t *testing.T) {
	smp := NewSampler(0.5)
	in, out := pickTraces(t, smp)
	// The head decision is a pure function of the trace ID: every node
	// in a fleet reaches the same verdict with no coordination.
	other := NewSampler(0.5)
	if !other.Sampled(in) || other.Sampled(out) {
		t.Fatal("two samplers at the same rate disagree on a verdict")
	}

	if s := NewSampler(1); !s.Sampled(out) {
		t.Fatal("rate 1 must keep everything")
	}
	if s := NewSampler(7.5); !s.Sampled(out) {
		t.Fatal("rate > 1 must clamp to keep-everything")
	}
	if s := NewSampler(-3); s.Sampled(in) || !s.Off() {
		t.Fatal("negative rate must clamp to off")
	}
	if !SamplerOff.Off() || SamplerOff.Sampled(in) {
		t.Fatal("SamplerOff must drop everything")
	}
	var nilSmp *Sampler
	if nilSmp.Off() || !nilSmp.Sampled(out) {
		t.Fatal("nil sampler must keep everything (full-capture v1 behavior)")
	}

	// At 50% the admitted fraction over many sequential IDs should be
	// near half — splitmix64 scrambles the low-entropy inputs.
	kept := 0
	const n = 4096
	for id := uint64(1); id <= n; id++ {
		if smp.Sampled(id) {
			kept++
		}
	}
	if kept < n/3 || kept > 2*n/3 {
		t.Fatalf("rate 0.5 kept %d of %d", kept, n)
	}
}

func span(trace uint64, kind string, at time.Time) Span {
	return Span{Trace: trace, Kind: kind, From: "a", To: "b", Time: at, Node: "n"}
}

func TestTracerHeadSamplingLedger(t *testing.T) {
	smp := NewSampler(0.5)
	in, out := pickTraces(t, smp)
	tr := NewTracer(16)
	tr.SetSampler(smp)
	reg := NewRegistry()
	tr.AttachMetrics(reg)
	t0 := time.Now()

	tr.Record(span(in, SpanSend, t0))
	tr.Record(span(out, SpanSend, t0))
	if got := uint64(tr.sampled.Value()); got != 1 {
		t.Fatalf("sampled = %d, want 1", got)
	}
	// The head decision is final: the unsampled span is counted dropped
	// the moment it is recorded.
	if got := uint64(tr.dropped.Value()); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := len(tr.Trace(in)); got != 1 {
		t.Fatalf("sampled trace has %d spans in ring, want 1", got)
	}
	if got := len(tr.Trace(out)); got != 0 {
		t.Fatalf("unsampled trace has %d spans in ring, want 0", got)
	}
	if v := reg.Counter("trace_sampled_total").Value(); v != 1 {
		t.Fatalf("trace_sampled_total = %g, want 1", v)
	}
	if v := reg.Counter("trace_dropped_total").Value(); v != 1 {
		t.Fatalf("trace_dropped_total = %g, want 1", v)
	}
}

// TestTracerUnsampledTraceKeepsOnlyItsDropSpan: a dead-lettered envelope
// is always kept, but it does not bring back the hops its unsampled
// trace recorded before it.
func TestTracerUnsampledTraceKeepsOnlyItsDropSpan(t *testing.T) {
	smp := NewSampler(0.5)
	_, out := pickTraces(t, smp)
	tr := NewTracer(64)
	tr.SetSampler(smp)
	var hooked []Span
	tr.OnRecord = func(s Span) { hooked = append(hooked, s) }
	t0 := time.Now()

	tr.Record(span(out, SpanSend, t0))
	tr.Record(span(out, SpanRoute, t0.Add(time.Millisecond)))
	tr.Record(span(out, SpanDrop, t0.Add(2*time.Millisecond)))
	got := tr.Trace(out)
	if len(got) != 1 || got[0].Kind != SpanDrop {
		t.Fatalf("unsampled trace kept %d spans, want only its drop span", len(got))
	}
	if len(hooked) != 1 || hooked[0].Kind != SpanDrop {
		t.Fatalf("OnRecord saw %d spans, want the drop span alone", len(hooked))
	}
	if uint64(tr.sampled.Value()) != 1 || uint64(tr.dropped.Value()) != 2 {
		t.Fatalf("ledger sampled=%d dropped=%d, want 1/2", uint64(tr.sampled.Value()), uint64(tr.dropped.Value()))
	}

	// Off is off: not even a drop span is kept.
	off := NewTracer(8)
	off.SetSampler(SamplerOff)
	off.Record(span(out, SpanDrop, t0))
	if uint64(off.sampled.Value()) != 0 || uint64(off.dropped.Value()) != 1 || len(off.Spans()) != 0 {
		t.Fatalf("off mode: sampled=%d dropped=%d spans=%d, want 0/1/0",
			uint64(off.sampled.Value()), uint64(off.dropped.Value()), len(off.Spans()))
	}
}

// TestTracerLedgerLaw holds the sampler's conservation law under
// concurrent recorders: every Record call is counted exactly once, as
// sampled or dropped, and every sampled span is either in the ring or
// counted evicted.
func TestTracerLedgerLaw(t *testing.T) {
	const recorders, perRecorder, capacity = 8, 500, 256
	for _, smp := range []*Sampler{NewSampler(1), NewSampler(0.5), SamplerOff} {
		tr := NewTracer(capacity)
		tr.SetSampler(smp)
		reg := NewRegistry()
		tr.AttachMetrics(reg)
		var wg sync.WaitGroup
		for g := 0; g < recorders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perRecorder; i++ {
					kind := SpanSend
					if i%10 == 9 {
						kind = SpanDrop
					}
					tr.Record(span(uint64(g*perRecorder+i+1), kind, time.Time{}))
				}
			}(g)
		}
		wg.Wait()
		sampled, dropped, evicted := uint64(tr.sampled.Value()), uint64(tr.dropped.Value()), uint64(tr.evicted.Value())
		if sampled+dropped != recorders*perRecorder {
			t.Errorf("rate %g: sampled %d + dropped %d != %d records",
				smp.rate, sampled, dropped, recorders*perRecorder)
		}
		if want := uint64(max(0, int(sampled)-capacity)); evicted != want {
			t.Errorf("rate %g: evicted %d, want %d", smp.rate, evicted, want)
		}
		if got := uint64(len(tr.Spans())); got != sampled-evicted {
			t.Errorf("rate %g: ring holds %d spans, want sampled-evicted = %d", smp.rate, got, sampled-evicted)
		}
		if v := reg.Counter("trace_sampled_total").Value() + reg.Counter("trace_dropped_total").Value(); v != recorders*perRecorder {
			t.Errorf("rate %g: mirrored counters sum to %g", smp.rate, v)
		}
	}
}

func TestTracerLedgerCountsIrrevocableLoss(t *testing.T) {
	smp := NewSampler(0.5)
	_, out := pickTraces(t, smp)
	tr := NewTracer(8)
	tr.SetSampler(smp)
	t0 := time.Now()

	// Nothing waits for a later verdict: every unsampled span is lost,
	// and counted, when it is recorded.
	for i := 0; i < 600; i++ {
		tr.Record(span(out, SpanSend, t0))
	}
	if got := uint64(tr.dropped.Value()); got != 600 {
		t.Fatalf("dropped = %d, want 600", got)
	}

	// Ring eviction: keep more than capacity with full capture.
	tr2 := NewTracer(8)
	reg := NewRegistry()
	tr2.AttachMetrics(reg)
	for i := 0; i < 11; i++ {
		tr2.Record(span(uint64(i+1), SpanSend, t0))
	}
	if got := uint64(tr2.evicted.Value()); got != 3 {
		t.Fatalf("evicted = %d, want 3", got)
	}
	if v := reg.Counter("trace_evicted_total").Value(); v != 3 {
		t.Fatalf("trace_evicted_total = %g, want 3", v)
	}
}

func TestEventLogRingSinceAndHandler(t *testing.T) {
	l := NewEventLog(4)
	reg := NewRegistry()
	l.AttachMetrics(reg)
	var hooked int
	l.OnEmit = func(Event) { hooked++ }

	t0 := time.Now()
	for i := 0; i < 6; i++ {
		ev := NewEvent("n", uint64(i+1), "a", "b", "ont", t0)
		ev.Finish(OutcomeOK, t0.Add(time.Millisecond))
		l.Emit(ev)
	}
	if l.Total() != 6 || l.Evicted() != 2 {
		t.Fatalf("total=%d evicted=%d, want 6/2", l.Total(), l.Evicted())
	}
	if hooked != 6 {
		t.Fatalf("OnEmit fired %d times, want 6", hooked)
	}
	evs := l.Events()
	if len(evs) != 4 || evs[0].Trace != 3 || evs[3].Trace != 6 {
		t.Fatalf("ring holds %d events, first=%d last=%d; want 4 events 3..6",
			len(evs), evs[0].Trace, evs[len(evs)-1].Trace)
	}

	// Since(fromTotal, limit) returns only what is new, and re-asking
	// from the returned total yields nothing.
	newer, total := l.Since(4, 4)
	if len(newer) != 2 || newer[0].Trace != 5 || total != 6 {
		t.Fatalf("Since(4) = %d events from trace %d (total %d), want 2 from 5 (6)",
			len(newer), newer[0].Trace, total)
	}
	if again, _ := l.Since(total, 4); len(again) != 0 {
		t.Fatalf("Since(total) returned %d events, want 0", len(again))
	}
	// A gap larger than the ring degrades to "everything retained".
	all, _ := l.Since(1, 4)
	if len(all) != 4 {
		t.Fatalf("Since(1) = %d events, want the 4 retained", len(all))
	}

	if v := reg.Counter("events_emitted_total").Value(); v != 6 {
		t.Fatalf("events_emitted_total = %g, want 6", v)
	}

	rec := httptest.NewRecorder()
	EventsHandler(l).ServeHTTP(rec, httptest.NewRequest("GET", "/events.json", nil))
	var page struct {
		Total   uint64  `json:"total"`
		Evicted uint64  `json:"evicted"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("events.json did not parse: %v", err)
	}
	if page.Total != 6 || page.Evicted != 2 || len(page.Events) != 4 {
		t.Fatalf("events.json total=%d evicted=%d events=%d, want 6/2/4",
			page.Total, page.Evicted, len(page.Events))
	}
}

func TestWideEventLifecycle(t *testing.T) {
	t0 := time.Now()
	ev := NewEvent("node", 42, "client", "server", "ont", t0)
	ev.AddPhase("attempt-1", 3*time.Millisecond)
	ev.SetAttr("k", "v")
	ev.Retries = 1
	ev.Finish(OutcomeTimeout, t0.Add(10*time.Millisecond))
	if ev.Outcome != OutcomeTimeout || ev.End != t0.Add(10*time.Millisecond) {
		t.Fatalf("outcome %q ending %v, want the timeout stamped at +10ms", ev.Outcome, ev.End)
	}
	if ev.Ms < 9.9 || ev.Ms > 10.1 {
		t.Fatalf("Ms = %g, want ~10", ev.Ms)
	}
	if len(ev.Phases) != 1 || ev.Phases[0].Name != "attempt-1" {
		t.Fatalf("phases = %+v", ev.Phases)
	}
	if ev.Attrs["k"] != "v" {
		t.Fatalf("attrs = %v", ev.Attrs)
	}
	// An end before the start stamps no duration.
	early := NewEvent("node", 43, "a", "b", "ont", t0)
	early.Finish(OutcomeOK, t0.Add(-time.Millisecond))
	if early.Ms != 0 || early.Outcome != OutcomeOK {
		t.Fatalf("early finish: Ms=%g outcome=%q, want 0 and ok", early.Ms, early.Outcome)
	}
}

// TestQuantileSmallCountClampsToMax is the regression test for the
// small-sample percentile lie: with 3 observations, p99's rank rounds to
// the last observation, and the answer must be the exact recorded max,
// not the bucket's upper bound (which overstated by up to the bucket
// width).
func TestQuantileSmallCountClampsToMax(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	for _, v := range []float64{0.010, 0.020, 0.517} {
		h.Observe(v)
	}
	if got := h.Quantile(0.99); got != 0.517 {
		t.Fatalf("p99 of 3 obs = %g, want the exact max 0.517", got)
	}
	if got := h.Quantile(0.999); got != 0.517 {
		t.Fatalf("p999 of 3 obs = %g, want the exact max 0.517", got)
	}
	// Mid quantiles still answer from buckets, not the max.
	if got := h.Quantile(0.50); got >= 0.517 {
		t.Fatalf("p50 of 3 obs = %g, want < max", got)
	}
}

// TestSnapshotCaptureConcurrent takes snapshots while the registry is
// being mutated from other goroutines: across successive snapshots no
// counter and no histogram count may go down, whatever interleaving
// produced them. Run under -race this also gates snapshot capture itself.
func TestSnapshotCaptureConcurrent(t *testing.T) {
	reg := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				reg.Counter("c_total", "g", string(rune('a'+g))).Inc()
				reg.Gauge("g_now").Set(float64(i))
				reg.Histogram("h_seconds").Observe(float64(i%100) / 1000)
			}
		}(g)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	prev := reg.Snapshot()
	for i := 0; i < 200; i++ {
		cur := reg.Snapshot()
		for k, v := range prev.Counters {
			if cur.Counters[k] < v {
				t.Fatalf("snapshot %d: counter %s went from %v to %v", i, k, v, cur.Counters[k])
			}
		}
		for k, h := range prev.Histograms {
			if cur.Histograms[k].Count < h.Count {
				t.Fatalf("snapshot %d: histogram %s count went from %d to %d", i, k, h.Count, cur.Histograms[k].Count)
			}
		}
		prev = cur
	}
}
