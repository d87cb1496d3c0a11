package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span kinds recorded by the platform and resilience layers. A span is
// one causal hop event in a conversation, not an open/close interval:
// envelopes in this system are fire-and-forget, so a point event per
// hop reconstructs the timeline exactly.
const (
	SpanSend    = "send"    // envelope entered Platform.Send
	SpanDeliver = "deliver" // envelope placed in a local mailbox
	SpanRoute   = "route"   // envelope accepted by an outbound route
	SpanIngress = "ingress" // envelope arrived from a remote link
	SpanRetry   = "retry"   // resilience layer re-attempted a send
	SpanDrop    = "drop"    // envelope dead-lettered
	SpanBuffer  = "buffer"  // reconnect link buffered while down
	SpanReplay  = "replay"  // reconnect link replayed after redial
	SpanFault   = "fault"   // fault injector acted on the envelope
)

var (
	traceHi  = uint64(time.Now().UnixNano()) << 20 // process-unique high bits
	traceSeq atomic.Uint64
)

// NewTraceID returns a process-unique, never-zero trace identifier.
func NewTraceID() uint64 {
	return (traceHi | (traceSeq.Add(1) & 0xfffff)) | 1<<63
}

// Span is one recorded hop event.
type Span struct {
	Trace uint64    `json:"trace"`
	Seq   uint64    `json:"seq"`  // envelope sequence number
	Time  time.Time `json:"time"` // wall time at the recording node
	Node  string    `json:"node"` // platform name
	Kind  string    `json:"kind"` // one of the Span* constants
	From  string    `json:"from"`
	To    string    `json:"to"`
	Note  string    `json:"note,omitempty"`
}

// Tracer is a bounded ring of spans with optional head sampling.
// Recording is cheap: one mutexed append for a kept span, a pair of
// atomic adds for one the sampler passes over, with no clock read and
// no lock. The ring keeps the most recent kept spans and evicts the
// oldest, counting every eviction. A nil *Tracer is a valid no-op sink.
//
// With no sampler (SetSampler never called, or called with nil) every
// span is kept, the original full-capture behavior. With a sampler, a
// span is kept if and only if its trace is head-sampled (see Sampler)
// or it is a drop span: a dead-lettered envelope is always kept, unless
// the sampler is SamplerOff. What a failed, unsampled conversation
// leaves behind is its wide event (EventLog), which is always emitted.
//
// The ledger is exact and loss is never silent; every Record call
// counts once as sampled or dropped:
//
//	trace_sampled_total — spans kept in the ring
//	trace_dropped_total — spans the sampler passed over
//	trace_evicted_total — kept spans later overwritten by ring wrap
type Tracer struct {
	mu   sync.Mutex
	ring []Span
	next int
	full bool

	sampler atomic.Pointer[Sampler]

	sampled atomic.Uint64
	dropped atomic.Uint64
	evicted atomic.Uint64

	// Optional mirrors into a metrics registry (AttachMetrics) and the
	// flight-recorder feed (SetOnRecord).
	cSampled atomic.Pointer[Counter]
	cDropped atomic.Pointer[Counter]
	cEvicted atomic.Pointer[Counter]
	onRecord atomic.Value // func(Span)
}

// NewTracer returns a tracer retaining up to capacity spans
// (default 4096 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// SetSampler installs (or with nil, removes) the head sampler. Safe on
// nil and safe to call while recording.
func (t *Tracer) SetSampler(s *Sampler) {
	if t == nil {
		return
	}
	t.sampler.Store(s)
}

// AttachMetrics mirrors the ledger into reg as trace_sampled_total,
// trace_dropped_total, and trace_evicted_total, seeding the counters
// with anything counted before attachment.
func (t *Tracer) AttachMetrics(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	cs := reg.Counter("trace_sampled_total")
	cd := reg.Counter("trace_dropped_total")
	ce := reg.Counter("trace_evicted_total")
	cs.Add(float64(t.sampled.Load()))
	cd.Add(float64(t.dropped.Load()))
	ce.Add(float64(t.evicted.Load()))
	t.cSampled.Store(cs)
	t.cDropped.Store(cd)
	t.cEvicted.Store(ce)
}

// SetOnRecord installs a hook called (outside the tracer lock) for
// every span kept in the ring — the flight-recorder feed. Pass nil to
// detach.
func (t *Tracer) SetOnRecord(fn func(Span)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.onRecord.Store((func(Span))(nil))
		return
	}
	t.onRecord.Store(fn)
}

// SampledTotal reports spans kept in the ring since start.
func (t *Tracer) SampledTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// DroppedTotal reports spans the sampler passed over since start.
func (t *Tracer) DroppedTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Evicted reports kept spans since overwritten by ring wrap — the
// "full-capture loss" that used to be silent.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted.Load()
}

// Record keeps a span if its trace is head-sampled or it is a drop span
// (never under SamplerOff), and counts it dropped otherwise. The
// decision comes before the clock read and the lock. Safe on nil.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	smp := t.sampler.Load()
	if !smp.Sampled(s.Trace) && (s.Kind != SpanDrop || smp.Off()) {
		t.dropped.Add(1)
		t.cDropped.Load().Add(1)
		return
	}
	if s.Time.IsZero() {
		s.Time = time.Now()
	}
	t.mu.Lock()
	if t.full {
		t.evicted.Add(1)
		t.cEvicted.Load().Add(1)
	}
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.sampled.Add(1)
	t.cSampled.Load().Add(1)
	t.mu.Unlock()
	if fn, _ := t.onRecord.Load().(func(Span)); fn != nil {
		fn(s)
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		out := make([]Span, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Trace returns the retained spans for one trace ID, in time order.
func (t *Tracer) Trace(id uint64) []Span {
	all := t.Spans()
	out := make([]Span, 0, 16)
	for _, s := range all {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// Traces lists the distinct trace IDs currently retained, in first-seen
// order.
func (t *Tracer) Traces() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, s := range t.Spans() {
		if s.Trace == 0 || seen[s.Trace] {
			continue
		}
		seen[s.Trace] = true
		out = append(out, s.Trace)
	}
	return out
}

// Timeline renders one trace as a human-readable causal hop timeline,
// with offsets relative to the first span:
//
//	trace 8000018f3a... (7 spans)
//	  +0.000000s  [client]  send     seq=3  handheld -> query-agent
//	  +0.000184s  [client]  route    seq=3  handheld -> query-agent  (route 1)
//	  ...
func (t *Tracer) Timeline(id uint64) string {
	spans := t.Trace(id)
	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x (%d spans)\n", id, len(spans))
	if len(spans) == 0 {
		return b.String()
	}
	t0 := spans[0].Time
	nodeW, kindW := 0, 0
	for _, s := range spans {
		if len(s.Node) > nodeW {
			nodeW = len(s.Node)
		}
		if len(s.Kind) > kindW {
			kindW = len(s.Kind)
		}
	}
	for _, s := range spans {
		fmt.Fprintf(&b, "  +%9.6fs  [%-*s]  %-*s  seq=%-4d %s -> %s",
			s.Time.Sub(t0).Seconds(), nodeW, s.Node, kindW, s.Kind, s.Seq, s.From, s.To)
		if s.Note != "" {
			fmt.Fprintf(&b, "  (%s)", s.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
