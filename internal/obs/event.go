package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// String renders a phase as name=ms, as Monitor.Timeline prints it.
func (p Phase) String() string { return fmt.Sprintf("%s=%.3fms", p.Name, p.Ms) }

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
// no-op sink, mirroring Tracer.
type EventLog struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	full    bool
	total   uint64
	evicted uint64

	onEmit func(Event) // chained; called under mu in emit order

	cEmitted *Counter
	cEvicted *Counter
}

// NewEventLog returns a log retaining up to capacity events
// (default 1024 when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{ring: make([]Event, capacity)}
}

// AttachMetrics mirrors the log into reg as events_emitted_total and
// events_evicted_total, seeding with anything counted before attach.
func (l *EventLog) AttachMetrics(reg *Registry) {
	if l == nil || reg == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cEmitted = reg.Counter("events_emitted_total")
	l.cEvicted = reg.Counter("events_evicted_total")
	l.cEmitted.Add(float64(l.total))
	l.cEvicted.Add(float64(l.evicted))
}

// OnEmit chains a hook called for every emitted event (the flight
// recorder and the telemetry reporter both tap here). Hooks run in
// installation order, under the log's lock: keep them fast.
func (l *EventLog) OnEmit(fn func(Event)) {
	if l == nil || fn == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.onEmit
	if prev == nil {
		l.onEmit = fn
		return
	}
	l.onEmit = func(e Event) { prev(e); fn(e) }
}

// Emit records one finished conversation. Safe on nil.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.full {
		l.evicted++
		l.cEvicted.Add(1)
	}
	l.ring[l.next] = e
	l.next++
	l.total++
	l.cEmitted.Add(1)
	if l.next == len(l.ring) {
		l.next = 0
		l.full = true
	}
	fn := l.onEmit
	if fn != nil {
		fn(e)
	}
	l.mu.Unlock()
}

// Total reports events ever emitted (including evicted ones).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Evicted reports events overwritten by ring wrap.
func (l *EventLog) Evicted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.full {
		out := make([]Event, l.next)
		copy(out, l.ring[:l.next])
		return out
	}
	out := make([]Event, 0, len(l.ring))
	out = append(out, l.ring[l.next:]...)
	out = append(out, l.ring[:l.next]...)
	return out
}

// Since returns events emitted after the first fromTotal emissions —
// the delta-shipping shape the telemetry reporter uses. Events already
// evicted from the ring are gone; the second return value is the new
// total to resume from.
func (l *EventLog) Since(fromTotal uint64) ([]Event, uint64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	total := l.total
	l.mu.Unlock()
	if total <= fromTotal {
		return nil, total
	}
	all := l.Events()
	want := total - fromTotal
	if want < uint64(len(all)) {
		all = all[uint64(len(all))-want:]
	}
	out := make([]Event, len(all))
	copy(out, all)
	return out, total
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
