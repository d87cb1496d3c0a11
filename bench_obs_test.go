package pervasivegrid_test

// Hot-path micro-benchmarks for the paths the observability layer
// instruments: local envelope delivery, a local request/reply conversation,
// semantic discovery matching, and a request/reply over loopback TCP. They
// are the per-layer cross-check of the end-to-end benchmark (bench/): run
// them at a fixed iteration count on both commits when comparing.
// TestCallLocalAllocs pins the conversation's allocations,
// TestRadioPathAllocs the query handler's over the simulated radio, and
// TestSamplingOverheadBudget the observability pipeline's own cost.

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/sensornet"
	"pervasivegrid/internal/supervise"
)

// BenchmarkPlatformDeliver measures one instrumented local delivery:
// Send through the deputy into the handler, confirmed per iteration so
// the mailbox never saturates.
func BenchmarkPlatformDeliver(b *testing.B) {
	p := agent.NewPlatform("bench")
	defer p.Close()
	done := make(chan struct{}, 1)
	if err := p.Register("sink", agent.HandlerFunc(func(agent.Envelope, *agent.Context) {
		done <- struct{}{}
	}), agent.Attributes{}, nil); err != nil {
		b.Fatal(err)
	}
	env, err := agent.NewEnvelope("bench", "sink", "inform", "b", map[string]float64{"temp": 21.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Send(env); err != nil {
			b.Fatal(err)
		}
		<-done
	}
	b.StopTimer()
	snap := p.MetricsSnapshot()
	if h, ok := snap.Histograms["agent_deliver_latency_seconds"]; ok && h.Count > 0 {
		b.ReportMetric(h.P99*1e9, "p99-ns")
	}
}

// BenchmarkRegisterIdleAgent registers agents that are never sent anything
// and reports the live heap each one holds (B/agent): the per-layer figure
// behind compose_local's heap_mb, whose ~2 000 provider agents are almost
// all idle. Agents are hosted a thousand to a platform, which is closed
// before the next, so a large b.N does not hold a goroutine per iteration.
func BenchmarkRegisterIdleAgent(b *testing.B) {
	const batch = 1000
	noop := agent.HandlerFunc(func(agent.Envelope, *agent.Context) {})
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var held int64
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		b.StopTimer()
		p := agent.NewPlatform("idle")
		before := liveHeap()
		b.StartTimer()
		for i := done; i < min(done+batch, b.N); i++ {
			if err := p.Register(agent.ID("idle-"+strconv.Itoa(i)), noop, agent.Attributes{}, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		held += liveHeap() - before
		p.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(held)/float64(b.N), "B/agent")
}

// echoPlatform hosts an agent that answers every request with "pong".
func echoPlatform(tb testing.TB) *agent.Platform {
	p := agent.NewPlatform("bench")
	tb.Cleanup(p.Close)
	if err := p.Register("echo", agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		if r, err := env.Reply("inform", "pong"); err == nil {
			_ = ctx.Send(r)
		}
	}), agent.Attributes{}, nil); err != nil {
		tb.Fatal(err)
	}
	return p
}

func callEcho(tb testing.TB, p *agent.Platform) {
	if _, err := agent.Call(p, "echo", "request", "b", "ping", 10*time.Second); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkCallLocal measures one in-process request/reply conversation:
// open an inbox, Send, the echo agent's reply, await, close. Run it at a
// fixed iteration count (-benchtime=5000x) when comparing commits.
func BenchmarkCallLocal(b *testing.B) {
	p := echoPlatform(b)
	callEcho(b, p) // mint the caller ID and the metric series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		callEcho(b, p)
	}
}

// callLocalAllocs is what one local Call allocates, both sides: the inbox,
// its reply queue and registration, the two envelope bodies, the attempt
// timer. A change to the conversation path that moves it has to say what
// the change costs, or what it saved.
const callLocalAllocs = 9

func TestCallLocalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	p := echoPlatform(t)
	callEcho(t, p)
	if got := testing.AllocsPerRun(200, func() { callEcho(t, p) }); got != callLocalAllocs {
		t.Fatalf("a local Call allocates %v times, pinned at %d", got, callLocalAllocs)
	}
}

// radioPathAllocs is what the query handler path allocates on the 10×10
// deployment of BenchmarkSubmitAggregate, the simulated radio included. The
// radio itself allocates nothing per message: a flood is its round's state
// (the seen set and the relay handler with what it captures); the rest of a
// query is parsing, planning, the round's ID-indexed slices and the reply.
// A per-message allocation in the kernel or on a radio path multiplies into
// these figures, so one that comes back fails here.
var radioPathAllocs = []struct {
	name   string
	query  string // "" is one Flood of a 40-byte query
	allocs float64
}{
	{"flood", "", 5},
	{"aggregate", "SELECT avg(temp) FROM sensors", 102},
	{"aggregate by room", "SELECT max(temp) FROM sensors WHERE room = 'r1'", 54},
	{"aggregate grouped", "SELECT count(temp) FROM sensors GROUP BY room", 163},
	{"aggregate by reading", "SELECT avg(temp) FROM sensors WHERE temp > 25", 85},
	{"point", "SELECT temp FROM sensors WHERE sensor = 42", 28},
}

func TestRadioPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	rt := queryRuntime(t)
	for _, c := range radioPathAllocs {
		run := func() {
			if c.query == "" {
				sensornet.Flood(rt.Net, sensornet.BaseStationID, 40)
			} else if _, err := rt.Submit(c.query); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(100, run); got != c.allocs {
			t.Errorf("%s allocates %v times, pinned at %v", c.name, got, c.allocs)
		}
	}
}

// BenchmarkCallTCP is one conversation over the wire, the ping_flood path:
// a handheld platform's Call through its Dial'ed link, the node's gateway,
// the echo agent and back, with the node instrumented as bench/node.go
// wires it (every trace sampled, wide events, breakers). Run it at a fixed
// iteration count (-benchtime=50000x) when comparing commits.
func BenchmarkCallTCP(b *testing.B) {
	node := echoPlatform(b)
	node.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{})
	node.Tracer = obs.NewTracer(4096)
	node.Tracer.SetSampler(obs.NewSampler(1))
	node.Events = obs.NewEventLog(4096)
	gw, err := agent.ListenAndServe(node, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(gw.Close)
	handheld := agent.NewPlatform("handheld")
	b.Cleanup(handheld.Close)
	link, err := agent.Dial(handheld, gw.Addr(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(link.Close)
	callEcho(b, handheld) // connect the reverse route, mint the caller ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		callEcho(b, handheld)
	}
}

// BenchmarkPlatformDeliverTraced is the same path with a tracer attached,
// quantifying the per-envelope cost of span recording.
func BenchmarkPlatformDeliverTraced(b *testing.B) {
	p := agent.NewPlatform("bench")
	p.Tracer = obs.NewTracer(4096)
	defer p.Close()
	done := make(chan struct{}, 1)
	if err := p.Register("sink", agent.HandlerFunc(func(agent.Envelope, *agent.Context) {
		done <- struct{}{}
	}), agent.Attributes{}, nil); err != nil {
		b.Fatal(err)
	}
	env, err := agent.NewEnvelope("bench", "sink", "inform", "b", map[string]float64{"temp": 21.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := env
		e.TraceID = 0 // fresh trace per delivery
		if err := p.Send(e); err != nil {
			b.Fatal(err)
		}
		<-done
	}
}

// sampledDeliverer wires the traced-delivery loop with the given sampler
// plus a wide-event log attached — the fully instrumented pipeline as
// pgridd runs it — and returns a func that sends n envelopes, waiting for
// each.
func sampledDeliverer(tb testing.TB, smp *obs.Sampler) func(n int) {
	p := agent.NewPlatform("bench")
	p.Tracer = obs.NewTracer(4096)
	p.Tracer.SetSampler(smp)
	p.Events = obs.NewEventLog(1024)
	tb.Cleanup(p.Close)
	done := make(chan struct{}, 1)
	if err := p.Register("sink", agent.HandlerFunc(func(agent.Envelope, *agent.Context) {
		done <- struct{}{}
	}), agent.Attributes{}, nil); err != nil {
		tb.Fatal(err)
	}
	env, err := agent.NewEnvelope("bench", "sink", "inform", "b", map[string]float64{"temp": 21.5})
	if err != nil {
		tb.Fatal(err)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			e := env
			e.TraceID = 0 // fresh trace per delivery
			if err := p.Send(e); err != nil {
				tb.Fatal(err)
			}
			<-done
		}
	}
}

func benchDeliverSampled(b *testing.B, smp *obs.Sampler) {
	send := sampledDeliverer(b, smp)
	b.ReportAllocs()
	b.ResetTimer()
	send(b.N)
}

// BenchmarkPlatformDeliverSampled is the instrumented Deliver path at the
// production sampling rate (1%): spans head-sampled by TraceID hash,
// wide-event log attached. TestSamplingOverheadBudget holds it within
// 5% of BenchmarkPlatformDeliverSamplerOff.
func BenchmarkPlatformDeliverSampled(b *testing.B) {
	benchDeliverSampled(b, obs.NewSampler(0.01))
}

// BenchmarkPlatformDeliverSamplerOff is the overhead baseline: the same
// wiring with sampling off (complete span blackout, cheapest possible
// Record path), isolating what 1% sampling itself costs.
func BenchmarkPlatformDeliverSamplerOff(b *testing.B) {
	benchDeliverSampled(b, obs.SamplerOff)
}

// TestSamplingOverheadBudget holds the observability pipeline to its
// budget: at 1% sampling, delivery may cost at most 5% more than the
// same wiring with sampling off. Seven timed pairs of 20 000 deliveries
// each, alternating which side runs first. An unsampled span costs what
// sampling off costs, so the two sides differ only by the 1% of spans
// kept; a single pair on a shared host drifts by ±5%, so the gate is the
// best pair: the test fails only when every pair is over budget.
func TestSamplingOverheadBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing comparison: needs a full, unraced run")
	}
	const deliveries, pairs, budget = 20_000, 7, 1.05
	sampled := sampledDeliverer(t, obs.NewSampler(0.01))
	off := sampledDeliverer(t, obs.SamplerOff)
	sampled(deliveries) // touch every histogram octave and ring slot once
	off(deliveries)
	timed := func(send func(int)) float64 {
		start := time.Now()
		send(deliveries)
		return float64(time.Since(start))
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		if i%2 == 0 {
			s := timed(sampled)
			ratios[i] = s / timed(off)
		} else {
			o := timed(off)
			ratios[i] = timed(sampled) / o
		}
	}
	sort.Float64s(ratios)
	t.Logf("sampled/off ratios %.3f, median %.3f", ratios, ratios[pairs/2])
	if ratios[0] > budget {
		t.Fatalf("1%% sampling costs over %.0f%% more than sampling off in all %d pairs (best %.3f)",
			(budget-1)*100, pairs, ratios[0])
	}
}

// BenchmarkDiscoveryMatch measures one semantic lookup against a
// 500-profile registry — the paper's discovery hot path.
func BenchmarkDiscoveryMatch(b *testing.B) {
	o := ontology.Pervasive()
	m := discovery.NewSemanticMatcher(o)
	r := discovery.NewRegistry()
	for i := 0; i < 500; i++ {
		concept := "PrinterService"
		if i%3 == 0 {
			concept = "ColorPrinter"
		}
		p := &ontology.Profile{
			Name: fmt.Sprintf("svc-%d", i), Concept: concept,
			Interface: "Printer.printIt", UUID: fmt.Sprintf("uuid-%d", i),
			Properties: map[string]ontology.Value{
				"queue": ontology.Num(float64(i % 10)),
				"cost":  ontology.Num(0.01 * float64(i%12)),
				"color": ontology.Str("yes"),
				"x":     ontology.Num(float64(i % 100)),
				"y":     ontology.Num(float64(i % 80)),
			},
		}
		if _, err := r.Register(p, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	req := ontology.Request{
		Concept: "ColorPrinter",
		Constraints: []ontology.Constraint{
			{Property: "color", Op: ontology.OpEq, Value: ontology.Str("yes")},
			{Property: "cost", Op: ontology.OpLe, Value: ontology.Num(0.10)},
		},
		PreferLow: []string{"queue"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Lookup(m, req); len(got) == 0 {
			b.Fatal("lookup found nothing")
		}
	}
}
