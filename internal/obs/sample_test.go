package obs

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
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
	if got := tr.SampledTotal(); got != 1 {
		t.Fatalf("sampled = %d, want 1", got)
	}
	// The head-dropped span is in limbo (buffered, promotable): it is
	// not yet counted dropped, because its loss is not yet irrevocable.
	if got := tr.DroppedTotal(); got != 0 {
		t.Fatalf("dropped = %d, want 0 (buffered spans are not lost yet)", got)
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
}

func TestTracerTailKeepPromotesBufferedSpans(t *testing.T) {
	smp := NewSampler(0.5)
	_, out := pickTraces(t, smp)
	tr := NewTracer(64)
	tr.SetSampler(smp)
	var recorded []Span
	tr.SetOnRecord(func(s Span) { recorded = append(recorded, s) })
	t0 := time.Now()

	tr.Record(span(out, SpanSend, t0))
	tr.Record(span(out, SpanRoute, t0.Add(time.Millisecond)))
	if len(tr.Trace(out)) != 0 || len(recorded) != 0 {
		t.Fatal("head-dropped spans must not reach the ring or the hook yet")
	}

	// Tail-keep: the conversation turned out to matter. Its buffered
	// spans promote in order and future spans are admitted.
	tr.KeepTrace(out)
	tr.Record(span(out, SpanDeliver, t0.Add(2*time.Millisecond)))
	got := tr.Trace(out)
	if len(got) != 3 {
		t.Fatalf("tail-kept trace has %d spans, want 3 (2 promoted + 1 live)", len(got))
	}
	if got[0].Kind != SpanSend || got[1].Kind != SpanRoute || got[2].Kind != SpanDeliver {
		t.Fatalf("span order after promotion: %v %v %v", got[0].Kind, got[1].Kind, got[2].Kind)
	}
	if len(recorded) != 3 {
		t.Fatalf("OnRecord saw %d spans, want 3 (promotions fire it too)", len(recorded))
	}
	if tr.SampledTotal() != 3 || tr.DroppedTotal() != 0 {
		t.Fatalf("ledger sampled=%d dropped=%d, want 3/0", tr.SampledTotal(), tr.DroppedTotal())
	}
	// Idempotent: keeping again must not re-promote the tombstoned spans.
	tr.KeepTrace(out)
	if got := len(tr.Trace(out)); got != 3 {
		t.Fatalf("re-keep duplicated spans: %d", got)
	}
}

// TestTracerKeepSurvivesOneRotation: a kept trace stays admitted while
// its generation is the previous one and is forgotten after a second
// rotation — through the kept-set filter, which is rebuilt each time.
func TestTracerKeepSurvivesOneRotation(t *testing.T) {
	smp := NewSampler(0.01)
	var ids []uint64
	for id := uint64(1); len(ids) < 9; id++ {
		if !smp.Sampled(id) {
			ids = append(ids, id)
		}
	}
	tr := NewTracer(64)
	tr.SetSampler(smp)
	tr.keepCap = 4
	admitted := func(id uint64) bool {
		before := tr.SampledTotal()
		tr.Record(span(id, SpanDeliver, time.Now()))
		return tr.SampledTotal() > before
	}
	tr.KeepTrace(ids[0])
	for _, id := range ids[1:5] { // fills the generation, then rotates it out
		tr.KeepTrace(id)
	}
	if !admitted(ids[0]) || !admitted(ids[4]) {
		t.Fatal("traces kept in the current or previous generation must be admitted")
	}
	for _, id := range ids[5:9] { // a second rotation drops ids[0]'s generation
		tr.KeepTrace(id)
	}
	if admitted(ids[0]) || !admitted(ids[8]) {
		t.Fatal("a trace two generations old must age out; the newest must stay")
	}
}

func TestTracerDropSpanAutoKeeps(t *testing.T) {
	smp := NewSampler(0.5)
	_, out := pickTraces(t, smp)
	tr := NewTracer(64)
	tr.SetSampler(smp)
	t0 := time.Now()

	tr.Record(span(out, SpanSend, t0))
	// A dead-letter is exactly the trace worth keeping: the drop span
	// must promote the buffered history and admit itself, no KeepTrace
	// call needed at the drop site.
	tr.Record(span(out, SpanDrop, t0.Add(time.Millisecond)))
	got := tr.Trace(out)
	if len(got) != 2 || got[1].Kind != SpanDrop {
		t.Fatalf("drop span did not auto-keep: %d spans", len(got))
	}
}

func TestTracerLedgerCountsIrrevocableLoss(t *testing.T) {
	smp := NewSampler(0.5)
	_, out := pickTraces(t, smp)
	tr := NewTracer(8)
	tr.SetSampler(smp)
	t0 := time.Now()

	// Overflow the recent side buffer with unsampled spans: every
	// overwrite is one span whose loss became irrevocable.
	for i := 0; i < recentCap+10; i++ {
		tr.Record(span(out, SpanSend, t0))
	}
	if got := tr.DroppedTotal(); got != 10 {
		t.Fatalf("dropped = %d, want 10 (buffer overwrites only)", got)
	}

	// Off mode: count-and-return, nothing retained, KeepTrace no-op.
	tr2 := NewTracer(8)
	tr2.SetSampler(SamplerOff)
	tr2.Record(span(out, SpanSend, t0))
	tr2.KeepTrace(out)
	tr2.Record(span(out, SpanSend, t0))
	if tr2.SampledTotal() != 0 || tr2.DroppedTotal() != 2 || tr2.Total() != 0 {
		t.Fatalf("off mode: sampled=%d dropped=%d total=%d, want 0/2/0",
			tr2.SampledTotal(), tr2.DroppedTotal(), tr2.Total())
	}

	// Ring eviction: admit more than capacity with full capture.
	tr3 := NewTracer(8)
	reg := NewRegistry()
	tr3.AttachMetrics(reg)
	for i := 0; i < 11; i++ {
		tr3.Record(span(uint64(i+1), SpanSend, t0))
	}
	if got := tr3.Evicted(); got != 3 {
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
	l.OnEmit(func(Event) { hooked++ })

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

	// Delta shipping: Since(fromTotal) returns only what is new, and
	// re-asking from the returned total yields nothing.
	newer, total := l.Since(4)
	if len(newer) != 2 || newer[0].Trace != 5 || total != 6 {
		t.Fatalf("Since(4) = %d events from trace %d (total %d), want 2 from 5 (6)",
			len(newer), newer[0].Trace, total)
	}
	if again, _ := l.Since(total); len(again) != 0 {
		t.Fatalf("Since(total) returned %d events, want 0", len(again))
	}
	// A gap larger than the ring degrades to "everything retained".
	all, _ := l.Since(1)
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
	if !ev.Failed() {
		t.Fatal("timeout outcome must count as failed")
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
	ok := NewEvent("node", 43, "a", "b", "ont", t0)
	ok.Finish(OutcomeOK, t0.Add(time.Millisecond))
	if ok.Failed() {
		t.Fatal("ok outcome must not count as failed")
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

// TestSnapshotDeltaApplyConcurrent round-trips the delta algebra while
// the registry is being mutated from other goroutines: prev.Apply(
// cur.Delta(prev)) must reconstruct cur exactly, whatever interleaving
// produced the snapshots. Run under -race this also gates snapshot
// capture itself.
func TestSnapshotDeltaApplyConcurrent(t *testing.T) {
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

	prev := reg.Snapshot()
	for i := 0; i < 200; i++ {
		cur := reg.Snapshot()
		recon := prev.Apply(cur.Delta(prev))
		if !reflect.DeepEqual(recon, cur) {
			close(stop)
			wg.Wait()
			t.Fatalf("iteration %d: Apply(Delta) did not reconstruct the snapshot", i)
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}
