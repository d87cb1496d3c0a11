package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Wide events: one structured record per conversation, emitted when the
// conversation ends. Where a span is one hop, a wide event is the whole
// story — route, retries, sheds, breaker state, per-phase latency
// breakdown, outcome — in a single row you can filter and aggregate
// without stitching. Events ride the telemetry plane to the monitor,
// are served at /events.json, and feed the flight recorder, so the last
// conversations before a crash are on disk.

// Conversation outcomes. The event is emitted whatever the outcome and
// whatever the trace's head-sampling verdict.
const (
	OutcomeOK          = "ok"
	OutcomeTimeout     = "timeout"
	OutcomeError       = "error"
	OutcomeBreakerOpen = "breaker-open"
)

// Phase is one named slice of a conversation's latency budget.
type Phase struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// Event is the wide record of one conversation. Construct it only via
// NewEvent (lint rule rawevent) so the identity fields are never
// forgotten; everything else accretes through the helper methods.
type Event struct {
	Trace    uint64    `json:"trace"`
	Node     string    `json:"node"`
	From     string    `json:"from"`
	To       string    `json:"to"`
	Ontology string    `json:"ontology,omitempty"`
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Ms       float64   `json:"ms"` // End-Start, denormalized for filtering

	Hops    int `json:"hops,omitempty"`    // hop count of the final reply
	Retries int `json:"retries,omitempty"` // re-sent attempts
	Sheds   int `json:"sheds,omitempty"`   // breaker rejects + mailbox sheds

	Breaker string  `json:"breaker,omitempty"` // breaker state toward To at the end
	Phases  []Phase `json:"phases,omitempty"`  // per-attempt/per-hop latency breakdown
	Outcome string  `json:"outcome"`           // one of the Outcome* constants
	Err     string  `json:"err,omitempty"`

	Attrs map[string]string `json:"attrs,omitempty"`
}

// NewEvent is the only sanctioned Event constructor: it pins the
// identity fields (who talked to whom, on which node, under which
// trace) that every downstream consumer keys on.
func NewEvent(node string, trace uint64, from, to, ontology string, start time.Time) Event {
	return Event{
		Trace:    trace,
		Node:     node,
		From:     from,
		To:       to,
		Ontology: ontology,
		Start:    start,
	}
}

// String renders a phase as name=ms, as Event.Line prints it.
func (p Phase) String() string { return fmt.Sprintf("%s=%.3fms", p.Name, p.Ms) }

// Line renders the event on one line, as the monitor's stitched
// timeline and the flight recorder's dump print it:
//
//	[node-1]  trace=8000018f3a…  caller -> silent  timeout  9.000ms  retries=1 sheds=0 hops=0  breaker=open  [attempt-1=4.000ms]  err=…
func (e Event) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]  trace=%016x  %s -> %s  %s  %.3fms  retries=%d sheds=%d hops=%d",
		e.Node, e.Trace, e.From, e.To, e.Outcome, e.Ms, e.Retries, e.Sheds, e.Hops)
	if e.Breaker != "" {
		fmt.Fprintf(&b, "  breaker=%s", e.Breaker)
	}
	if len(e.Phases) > 0 {
		fmt.Fprintf(&b, "  %v", e.Phases)
	}
	if e.Err != "" {
		fmt.Fprintf(&b, "  err=%s", e.Err)
	}
	return b.String()
}

// AddPhase appends one latency-breakdown slice.
func (e *Event) AddPhase(name string, d time.Duration) {
	e.Phases = append(e.Phases, Phase{Name: name, Ms: float64(d) / float64(time.Millisecond)})
}

// SetAttr attaches a scenario-specific key/value.
func (e *Event) SetAttr(k, v string) {
	if e.Attrs == nil {
		e.Attrs = make(map[string]string, 4)
	}
	e.Attrs[k] = v
}

// Finish stamps the end time and outcome, denormalizing the duration.
func (e *Event) Finish(outcome string, end time.Time) {
	e.Outcome = outcome
	e.End = end
	if !e.Start.IsZero() && end.After(e.Start) {
		e.Ms = float64(end.Sub(e.Start)) / float64(time.Millisecond)
	}
}

// EventLog is a bounded ring of wide events. A nil *EventLog is a valid
// no-op sink, like Tracer. Its two counts are Counters, read by Total
// and Evicted and published by AttachMetrics.
type EventLog struct {
	// OnEmit, when set, is called outside the log's lock with every
	// emitted event: the flight recorder's feed. Set it before traffic
	// starts.
	OnEmit func(Event)

	mu      sync.Mutex
	ring    Ring[Event]
	emitted Counter
	evicted Counter
}

// NewEventLog returns a log retaining up to capacity events
// (default 1024 when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{ring: NewRing[Event](capacity)}
}

// AttachMetrics publishes the log's counts in reg as
// events_emitted_total and events_evicted_total.
func (l *EventLog) AttachMetrics(reg *Registry) {
	if l == nil {
		return
	}
	reg.Publish(&l.emitted, "events_emitted_total")
	reg.Publish(&l.evicted, "events_evicted_total")
}

// Emit records one finished conversation. Safe on nil.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.ring.Push(e) {
		l.evicted.Inc()
	}
	l.emitted.Inc()
	l.mu.Unlock()
	if l.OnEmit != nil {
		l.OnEmit(e)
	}
}

// Total reports events ever emitted (including evicted ones).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	return uint64(l.emitted.Value())
}

// Evicted reports events overwritten by ring wrap.
func (l *EventLog) Evicted() uint64 {
	if l == nil {
		return 0
	}
	return uint64(l.evicted.Value())
}

// Len reports the events retained.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Newest(l.ring.Len())
}

// Since returns the newest events emitted after the first from, at
// most limit of them, oldest first, and the total to resume from.
// Events already evicted from the ring are gone.
func (l *EventLog) Since(from uint64, limit int) ([]Event, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	total := uint64(l.emitted.Value())
	return l.ring.Newest(fresh(total, from, limit)), total
}

// eventsPage is the /events.json response shape.
type eventsPage struct {
	Total   uint64  `json:"total"`
	Evicted uint64  `json:"evicted"`
	Events  []Event `json:"events"`
}

// EventsHandler serves the retained wide events as JSON, newest last.
func EventsHandler(l *EventLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page := eventsPage{Total: l.Total(), Evicted: l.Evicted(), Events: l.Events()}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
}
