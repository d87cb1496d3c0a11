package agent

import (
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

func TestMetricsSnapshotDeliverLatency(t *testing.T) {
	p := NewPlatform("metrics-node")
	defer p.Close()
	sink := newCollector(50)
	if err := p.Register("sink", sink, Attributes{}, nil); err != nil {
		t.Fatal(err)
	}

	const sends = 50
	for i := 0; i < sends; i++ {
		env, err := NewEnvelope("test", "sink", "inform", "m", i)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	sink.wait(t)

	snap := p.MetricsSnapshot()
	h, ok := snap.Histograms["agent_deliver_latency_seconds"]
	if !ok {
		t.Fatalf("deliver latency histogram missing; have %v", keys(snap.Histograms))
	}
	if h.Count != sends {
		t.Fatalf("histogram count = %d, want %d", h.Count, sends)
	}
	if h.P99 <= 0 {
		t.Fatalf("p99 = %v, want > 0", h.P99)
	}
	if h.P50 > h.P95 || h.P95 > h.P99 {
		t.Fatalf("quantiles not monotone: p50=%v p95=%v p99=%v", h.P50, h.P95, h.P99)
	}
	if h.P99 > h.Max || h.P50 < h.Min {
		t.Fatalf("quantiles outside observed range: min=%v max=%v p50=%v p99=%v", h.Min, h.Max, h.P50, h.P99)
	}

	if c, ok := snap.Counters["agent_delivered_total"]; !ok || c != sends {
		t.Fatalf("agent_delivered_total = %v, want %d", c, sends)
	}
	if _, ok := snap.Gauges[`agent_mailbox_depth{agent="sink"}`]; !ok {
		t.Fatalf("mailbox depth gauge missing; have %v", keys(snap.Gauges))
	}
}

func TestMetricsDeadLetterCounter(t *testing.T) {
	p := NewPlatform("metrics-node")
	defer p.Close()
	env, err := NewEnvelope("test", "nobody", "inform", "m", "x")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send(env); err == nil {
		t.Fatal("send to unknown agent should fail")
	}
	snap := p.MetricsSnapshot()
	if c := snap.Counters[`agent_dead_letter_total{reason="no_route"}`]; c != 1 {
		t.Fatalf("dead letter counter = %v, want 1; have %v", c, keys(snap.Counters))
	}
}

func TestTraceIDPropagatesThroughReply(t *testing.T) {
	p := NewPlatform("trace-node")
	p.Tracer = obs.NewTracer(64)
	defer p.Close()
	if err := p.Register("echo", HandlerFunc(func(env Envelope, ctx *Context) {
		if env.TraceID == 0 {
			t.Error("handler received envelope without trace id")
		}
		out, err := env.Reply("inform", "ok")
		if err != nil {
			t.Error(err)
			return
		}
		out.From = ctx.Self
		_ = ctx.Platform.Send(out)
	}), Attributes{}, nil); err != nil {
		t.Fatal(err)
	}

	reply, err := Call(p, "echo", "request", "m", "hi", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TraceID == 0 {
		t.Fatal("reply lost the trace id")
	}
	spans := p.Tracer.Trace(reply.TraceID)
	// Send records the reply's deliver span after the inbox holds the reply,
	// so Call can return first: give that span the call's timeout to land.
	for deadline := time.Now().Add(2 * time.Second); len(spans) < 4 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		spans = p.Tracer.Trace(reply.TraceID)
	}
	if len(spans) < 4 {
		t.Fatalf("want >= 4 spans (send+deliver each way), got %d:\n%s",
			len(spans), p.Tracer.Timeline(reply.TraceID))
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
