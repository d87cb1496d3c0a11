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

// Tracer is a bounded ring of spans with optional head sampling and
// tail-keep. Recording is cheap (one mutexed append on the sampled
// path, a pair of atomic adds on the blacked-out path); the ring keeps
// the most recent retained spans and evicts the oldest, counting every
// eviction. A nil *Tracer is a valid no-op sink.
//
// With no sampler (SetSampler never called, or called with nil) every
// span is retained — the original full-capture behavior. With a
// sampler, the deterministic head decision (see Sampler) routes each
// span either into the ring or into a short "recent" side buffer.
// KeepTrace promotes a trace after the fact: its buffered spans move
// into the ring in order and all its future spans are retained, which
// is how error, shed, breaker-open, and p99-slow conversations survive
// a 1% sampling rate. Drop spans trigger the promotion automatically.
//
// The ledger is exact and loss is never silent:
//
//	trace_sampled_total — spans retained in the ring (head or tail keep)
//	trace_dropped_total — spans whose loss became irrevocable (evicted
//	                      from the recent buffer unpromoted, or recorded
//	                      while the sampler was off)
//	trace_evicted_total — retained spans later overwritten by ring wrap
type Tracer struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	full  bool
	total uint64

	// Tail-keep machinery, all guarded by mu.
	recent  []Span // head-dropped spans, promotion candidates
	rnext   int
	rfull   bool
	keep    map[uint64]struct{} // tail-kept traces (current generation)
	keepOld map[uint64]struct{} // previous generation (approximate age-out)
	keepCap int
	// keepBits has bit id%(64·keepWords) set for every id in keep and
	// keepOld, so the common miss — an unsampled span of an unkept
	// trace — costs one load instead of two map lookups.
	keepBits [keepWords]uint64

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

// recentCap sizes the tail-keep side buffer: it only needs to cover the
// spans of conversations still in flight, not history.
const recentCap = 512

// keepGenCap bounds the tail-keep set per generation; two generations
// are live at once, so at most 2×keepGenCap traces are pinned.
const keepGenCap = 1024

// keepWords sizes the kept-set filter: 32 768 bits for at most 2 048
// pinned traces.
const keepWords = 512

// NewTracer returns a tracer retaining up to capacity spans
// (default 4096 when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Tracer{ring: make([]Span, capacity), keepCap: keepGenCap}
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
// every span retained in the ring — the flight-recorder feed. Promoted
// spans fire it too, in order. Pass nil to detach.
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

func (t *Tracer) fireOnRecord(spans ...Span) {
	fn, _ := t.onRecord.Load().(func(Span))
	if fn == nil {
		return
	}
	for _, s := range spans {
		fn(s)
	}
}

// SampledTotal reports spans retained in the ring since start.
func (t *Tracer) SampledTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// DroppedTotal reports spans irrevocably lost to sampling since start.
func (t *Tracer) DroppedTotal() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Evicted reports retained spans since overwritten by ring wrap — the
// "full-capture loss" that used to be silent.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	return t.evicted.Load()
}

// Record appends a span, applying the sampling policy. Safe on nil.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	smp := t.sampler.Load()
	if smp.Off() {
		// Blacked out: count the loss and get off the hot path without
		// touching the clock or the lock.
		t.dropped.Add(1)
		t.cDropped.Load().Add(1)
		return
	}
	if s.Time.IsZero() {
		s.Time = time.Now()
	}
	t.mu.Lock()
	admit := smp.Sampled(s.Trace) || t.keptLocked(s.Trace)
	if !admit && s.Kind == SpanDrop {
		// A dead-lettered envelope is exactly the trace worth keeping:
		// promote everything buffered for it, then admit this span.
		t.keepLocked(s.Trace)
		promoted := t.promoteLocked(s.Trace)
		t.appendLocked(s)
		t.mu.Unlock()
		t.fireOnRecord(promoted...)
		t.fireOnRecord(s)
		return
	}
	if admit {
		t.appendLocked(s)
		t.mu.Unlock()
		t.fireOnRecord(s)
		return
	}
	t.bufferLocked(s)
	t.mu.Unlock()
}

// KeepTrace pins a trace: its buffered recent spans are promoted into
// the ring and all its future spans are retained regardless of the head
// decision. This is the tail-keep entry point for error, shed,
// breaker-open, and p99-slow conversations. Safe on nil; a no-op for
// trace 0, with no sampler (everything is kept already), or when
// sampling is off.
func (t *Tracer) KeepTrace(id uint64) {
	if t == nil || id == 0 {
		return
	}
	smp := t.sampler.Load()
	if smp == nil || smp.Off() {
		return
	}
	t.mu.Lock()
	if smp.Sampled(id) || t.keptLocked(id) {
		t.mu.Unlock()
		return
	}
	t.keepLocked(id)
	promoted := t.promoteLocked(id)
	t.mu.Unlock()
	t.fireOnRecord(promoted...)
}

// appendLocked retains s in the main ring. Caller holds mu.
func (t *Tracer) appendLocked(s Span) {
	if t.full {
		t.evicted.Add(1)
		t.cEvicted.Load().Add(1)
	}
	t.ring[t.next] = s
	t.next++
	t.total++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.sampled.Add(1)
	t.cSampled.Load().Add(1)
}

// bufferLocked parks a head-dropped span in the recent side buffer; the
// span it overwrites (if any) is now irrevocably lost and counted.
// Caller holds mu.
func (t *Tracer) bufferLocked(s Span) {
	if t.recent == nil {
		t.recent = make([]Span, recentCap)
	}
	if t.rfull {
		t.dropped.Add(1)
		t.cDropped.Load().Add(1)
	}
	t.recent[t.rnext] = s
	t.rnext++
	if t.rnext == len(t.recent) {
		t.rnext = 0
		t.rfull = true
	}
}

// keptLocked reports whether id is tail-kept. Caller holds mu.
func (t *Tracer) keptLocked(id uint64) bool {
	if t.keepBits[id/64%keepWords]&(1<<(id%64)) == 0 {
		return false
	}
	if _, ok := t.keep[id]; ok {
		return true
	}
	_, ok := t.keepOld[id]
	return ok
}

// keepLocked marks id tail-kept, rotating generations when the current
// one fills (approximate age-out with bounded memory). Caller holds mu.
func (t *Tracer) keepLocked(id uint64) {
	if t.keep == nil {
		t.keep = make(map[uint64]struct{}, 64)
	}
	if t.keepCap <= 0 {
		t.keepCap = keepGenCap
	}
	if len(t.keep) >= t.keepCap {
		t.keepOld = t.keep
		t.keep = make(map[uint64]struct{}, 64)
		clear(t.keepBits[:])
		for old := range t.keepOld {
			t.keepBits[old/64%keepWords] |= 1 << (old % 64)
		}
	}
	t.keep[id] = struct{}{}
	t.keepBits[id/64%keepWords] |= 1 << (id % 64)
}

// promoteLocked moves id's spans from the recent buffer into the ring,
// oldest first, returning them for the OnRecord hook. Caller holds mu.
func (t *Tracer) promoteLocked(id uint64) []Span {
	if t.recent == nil {
		return nil
	}
	n := len(t.recent)
	if !t.rfull {
		n = t.rnext
	}
	var promoted []Span
	scan := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if t.recent[i].Trace != id {
				continue
			}
			t.appendLocked(t.recent[i])
			promoted = append(promoted, t.recent[i])
			t.recent[i].Trace = 0 // tombstone; never promote twice
		}
	}
	if t.rfull {
		scan(t.rnext, len(t.recent))
		scan(0, t.rnext)
	} else {
		scan(0, n)
	}
	return promoted
}

// Total reports how many spans have ever been retained in the ring
// (including those already evicted from it).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
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
