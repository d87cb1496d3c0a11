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
// Recording is cheap: one mutexed push for a kept span, one atomic
// add for one the sampler passes over, with no clock read and no lock.
// The ring keeps the most recent kept spans and evicts the oldest,
// counting every eviction. A nil *Tracer is a valid no-op sink.
//
// With no sampler (SetSampler never called, or called with nil) every
// span is kept, the original full-capture behavior. With a sampler, a
// span is kept if and only if its trace is head-sampled (see Sampler)
// or it is a drop span: a dead-lettered envelope is always kept, unless
// the sampler is SamplerOff. What a failed, unsampled conversation
// leaves behind is its wide event (EventLog), which is always emitted.
//
// The ledger is exact and loss is never silent; every Record call
// counts once as sampled or dropped. Each count is one Counter, published
// by AttachMetrics (Since resumes from the first):
//
//	trace_sampled_total — spans kept in the ring
//	trace_dropped_total — spans the sampler passed over
//	trace_evicted_total — kept spans later overwritten by ring wrap
type Tracer struct {
	// OnRecord, when set, is called outside the tracer's lock with every
	// span kept in the ring: the flight recorder's feed. Set it before
	// traffic starts.
	OnRecord func(Span)

	mu   sync.Mutex
	ring Ring[Span]

	sampler atomic.Pointer[Sampler]

	sampled Counter
	dropped Counter
	evicted Counter
}

// NewTracer returns a tracer retaining up to capacity spans
// (default 4096 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{ring: NewRing[Span](capacity)}
}

// SetSampler installs (or with nil, removes) the head sampler. Safe on
// nil and safe to call while recording.
func (t *Tracer) SetSampler(s *Sampler) {
	if t == nil {
		return
	}
	t.sampler.Store(s)
}

// AttachMetrics publishes the ledger in reg as trace_sampled_total,
// trace_dropped_total, and trace_evicted_total.
func (t *Tracer) AttachMetrics(reg *Registry) {
	if t == nil {
		return
	}
	reg.Publish(&t.sampled, "trace_sampled_total")
	reg.Publish(&t.dropped, "trace_dropped_total")
	reg.Publish(&t.evicted, "trace_evicted_total")
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
		t.dropped.Inc()
		return
	}
	if s.Time.IsZero() {
		s.Time = time.Now()
	}
	t.mu.Lock()
	if t.ring.Push(s) {
		t.evicted.Inc()
	}
	t.sampled.Inc()
	t.mu.Unlock()
	if t.OnRecord != nil {
		t.OnRecord(s)
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Newest(t.ring.Len())
}

// Since returns the newest spans kept after the first from, at most
// limit of them, oldest first, and the total to resume from. Spans
// already evicted from the ring are gone.
func (t *Tracer) Since(from uint64, limit int) ([]Span, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	total := uint64(t.sampled.Value())
	return t.ring.Newest(fresh(total, from, limit)), total
}

// fresh is how many values a Since call copies: those recorded after
// the first from of total, at most limit.
func fresh(total, from uint64, limit int) int {
	if total <= from {
		return 0
	}
	return int(min(total-from, uint64(max(limit, 0))))
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

// Timeline renders one trace as a human-readable causal hop timeline
// (see WriteTimeline).
func (t *Tracer) Timeline(id uint64) string {
	var b strings.Builder
	WriteTimeline(&b, "", id, t.Trace(id))
	return b.String()
}

// WriteTimeline renders one trace's spans, in time order, as a causal
// hop timeline with offsets relative to the first span, every line
// prefixed by indent:
//
//	trace 8000018f3a... (7 spans)
//	  +0.000000s  [client]  send     seq=3  handheld -> query-agent
//	  +0.000184s  [client]  route    seq=3  handheld -> query-agent  (route 1)
//	  ...
func WriteTimeline(b *strings.Builder, indent string, id uint64, spans []Span) {
	fmt.Fprintf(b, "%strace %016x (%d spans)\n", indent, id, len(spans))
	if len(spans) == 0 {
		return
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
		fmt.Fprintf(b, "%s  +%9.6fs  [%-*s]  %-*s  seq=%-4d %s -> %s",
			indent, s.Time.Sub(t0).Seconds(), nodeW, s.Node, kindW, s.Kind, s.Seq, s.From, s.To)
		if s.Note != "" {
			fmt.Fprintf(b, "  (%s)", s.Note)
		}
		b.WriteByte('\n')
	}
}
