package durable

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
)

// Flight recorder: the black box. The tracer and event log explain a
// running node, but a crash takes their rings with it — exactly when
// the last few conversations matter most. The recorder journals every
// retained span and every wide event through its own small WAL, so
// after a panic, an OnGiveUp escalation, a SIGQUIT, or a kill -9, the
// next boot replays what the node saw on its way down
// (`pgridd -flight-dump`).
//
// It is a *bounded* black box, not an archive: small segments rotate
// and only the last flightKeepSegments are retained, so the disk cost is
// fixed no matter how long the node runs. Appends are plain
// write(2)s — a killed process loses nothing (the page cache survives
// process death); explicit Flush fsyncs for the machine-crash case and
// runs on the crash hooks.

// The recorder's shape. Its journal has 256 KiB segments and fsyncs on
// rotate (a write(2) per record regardless, see above).
const (
	flightSegmentBytes = 256 << 10
	// flightEventCap and flightSpanCap bound the rings recovered at open;
	// the newest records win.
	flightEventCap = 256
	flightSpanCap  = 1024
	// flightKeepSegments bounds the on-disk window: segments older than
	// the newest two are deleted after each rotation, so the box holds
	// between one and two segments' worth of history.
	flightKeepSegments = 2
)

// FlightMark is a crash-context marker journaled when a flush hook
// fires (agent restart, give-up, SIGQUIT), so the dump says not just
// what happened but why the box was sealed.
type FlightMark struct {
	Note string    `json:"note"`
	Err  string    `json:"err,omitempty"`
	Time time.Time `json:"time"`
}

// flightRec is the journal frame: exactly one of Ev/Sp/Mk is set.
type flightRec struct {
	K  string      `json:"k"` // "fev" | "fsp" | "fmk"
	Ev *obs.Event  `json:"ev,omitempty"`
	Sp *obs.Span   `json:"sp,omitempty"`
	Mk *FlightMark `json:"mk,omitempty"`
}

// FlightRecorder journals recent wide events and spans to disk.
type FlightRecorder struct {
	wal *WAL

	mu      sync.Mutex
	events  obs.Ring[obs.Event] // recovered from the previous life
	spans   obs.Ring[obs.Span]
	marks   []FlightMark
	lastSeg uint64
	badRecs int
}

// OpenFlight opens (creating if needed) the black box under dir,
// replaying whatever the previous process life left behind.
func OpenFlight(dir string) (*FlightRecorder, error) {
	fr := newFlightRecorder()
	opts := Options{SegmentBytes: flightSegmentBytes, Sync: SyncOnRotate}
	w, err := OpenWAL(dir, 0, opts, fr.replay)
	if err != nil {
		return nil, err
	}
	fr.wal = w
	fr.lastSeg = w.ActiveSegment()
	fr.gc()
	return fr, nil
}

// newFlightRecorder returns a recorder with empty recovery rings and no
// journal yet.
func newFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		events: obs.NewRing[obs.Event](flightEventCap),
		spans:  obs.NewRing[obs.Span](flightSpanCap),
	}
}

// replay decodes one journal record into the recovered rings. A record
// that does not decode, or whose kind does not name its payload, is bad.
func (fr *FlightRecorder) replay(_ uint64, rec []byte) {
	var r flightRec
	if err := json.Unmarshal(rec, &r); err != nil {
		fr.badRecs++
		return
	}
	switch {
	case r.K == "fev" && r.Ev != nil:
		fr.events.Push(*r.Ev)
	case r.K == "fsp" && r.Sp != nil:
		fr.spans.Push(*r.Sp)
	case r.K == "fmk" && r.Mk != nil:
		fr.marks = append(fr.marks, *r.Mk)
	default:
		fr.badRecs++
	}
}

// RecoveredEvents returns the wide events replayed at open, oldest
// first — the pre-crash conversation history.
func (fr *FlightRecorder) RecoveredEvents() []obs.Event {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.events.Newest(flightEventCap)
}

// RecoveredSpans returns the spans replayed at open, oldest first —
// including the in-flight conversation the crash interrupted.
func (fr *FlightRecorder) RecoveredSpans() []obs.Span {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.spans.Newest(flightSpanCap)
}

// append journals one frame and garbage-collects old segments after a
// rotation. Journal errors are swallowed: the black box must never
// take down the flight it is recording.
func (fr *FlightRecorder) append(r flightRec) {
	data, err := json.Marshal(r)
	if err != nil {
		return
	}
	if err := fr.wal.Append(data); err != nil {
		return
	}
	if seg := fr.wal.ActiveSegment(); seg != fr.lastSeg {
		fr.mu.Lock()
		fr.lastSeg = seg
		fr.mu.Unlock()
		fr.gc()
	}
}

// gc trims the on-disk window to flightKeepSegments.
func (fr *FlightRecorder) gc() {
	if active := fr.wal.ActiveSegment(); active+1 > flightKeepSegments {
		_ = fr.wal.RemoveBefore(active + 1 - flightKeepSegments)
	}
}

// RecordEvent journals one wide event. Safe on nil; hook this to
// obs.EventLog.OnEmit.
func (fr *FlightRecorder) RecordEvent(ev obs.Event) {
	if fr == nil {
		return
	}
	fr.append(flightRec{K: "fev", Ev: &ev})
}

// RecordSpan journals one retained span. Safe on nil; hook this to
// obs.Tracer.OnRecord.
func (fr *FlightRecorder) RecordSpan(sp obs.Span) {
	if fr == nil {
		return
	}
	fr.append(flightRec{K: "fsp", Sp: &sp})
}

// Mark journals a crash-context marker and flushes: the box is being
// sealed because something went wrong.
func (fr *FlightRecorder) Mark(note string, cause error) {
	if fr == nil {
		return
	}
	errStr := ""
	if cause != nil {
		errStr = cause.Error()
	}
	fr.append(flightRec{K: "fmk", Mk: &FlightMark{
		Note: note,
		Err:  errStr,
		Time: obs.Real.Now(),
	}})
	_ = fr.Flush()
}

// Hook subscribes the recorder to a tracer and an event log: every
// retained span and every emitted wide event is journaled. Either may
// be nil. Call it before traffic starts.
func (fr *FlightRecorder) Hook(tr *obs.Tracer, events *obs.EventLog) {
	if fr == nil {
		return
	}
	if tr != nil {
		tr.OnRecord = fr.RecordSpan
	}
	if events != nil {
		events.OnEmit = fr.RecordEvent
	}
}

// AttachPlatform chains the recorder onto the platform's crash hooks:
// an agent restart (panic) or give-up seals the box with a marker and
// an fsync, so the journal survives even a machine crash that follows.
// Call after any other hook owners (durable.Store) have attached.
func (fr *FlightRecorder) AttachPlatform(p *agent.Platform) {
	if fr == nil || p == nil {
		return
	}
	prevRestart := p.OnAgentRestart
	p.OnAgentRestart = func(id agent.ID, err error) {
		if prevRestart != nil {
			prevRestart(id, err)
		}
		fr.Mark("agent-restart:"+string(id), err)
	}
	prevDown := p.OnAgentDown
	p.OnAgentDown = func(id agent.ID, err error) {
		if prevDown != nil {
			prevDown(id, err)
		}
		fr.Mark("agent-giveup:"+string(id), err)
	}
}

// Flush fsyncs the journal.
func (fr *FlightRecorder) Flush() error {
	if fr == nil {
		return nil
	}
	return fr.wal.Sync()
}

// Close flushes and closes the journal.
func (fr *FlightRecorder) Close() error {
	if fr == nil {
		return nil
	}
	return fr.wal.Close()
}

// DumpText renders the recovered black box for humans — the
// `pgridd -flight-dump` output. Events come first (one line each),
// then per-trace span timelines for the traces those events reference
// plus any orphan in-flight traces.
func (fr *FlightRecorder) DumpText() string {
	if fr == nil {
		return "flight recorder: not open\n"
	}
	fr.mu.Lock()
	events := fr.events.Newest(flightEventCap)
	spans := fr.spans.Newest(flightSpanCap)
	marks := append([]FlightMark(nil), fr.marks...)
	bad := fr.badRecs
	fr.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: %d wide events, %d spans, %d marks recovered",
		len(events), len(spans), len(marks))
	if bad > 0 {
		fmt.Fprintf(&b, " (%d undecodable records skipped)", bad)
	}
	b.WriteByte('\n')
	for _, m := range marks {
		fmt.Fprintf(&b, "MARK %s  %s", m.Time.Format(time.RFC3339Nano), m.Note)
		if m.Err != "" {
			fmt.Fprintf(&b, "  err=%s", m.Err)
		}
		b.WriteByte('\n')
	}
	if len(events) > 0 {
		b.WriteString("\nwide events (oldest first):\n")
		for _, ev := range events {
			fmt.Fprintf(&b, "  %s  %s\n", ev.Start.Format("15:04:05.000"), ev.Line())
		}
	}
	if len(spans) > 0 {
		// Group spans per trace, traces in first-seen order, spans in
		// time order, rendered as obs.Tracer.Timeline renders a trace.
		order := []uint64{}
		byTrace := map[uint64][]obs.Span{}
		for _, s := range spans {
			if _, ok := byTrace[s.Trace]; !ok {
				order = append(order, s.Trace)
			}
			byTrace[s.Trace] = append(byTrace[s.Trace], s)
		}
		b.WriteString("\nspan timelines (oldest trace first):\n")
		for _, id := range order {
			ss := byTrace[id]
			sort.SliceStable(ss, func(i, j int) bool { return ss[i].Time.Before(ss[j].Time) })
			obs.WriteTimeline(&b, "  ", id, ss)
		}
	}
	return b.String()
}
