package durable_test

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/obs"
)

func flightSpan(trace, seq uint64, kind string, at time.Time) obs.Span {
	return obs.Span{Trace: trace, Seq: seq, Time: at, Node: "n1", Kind: kind, From: "a", To: "b"}
}

// TestFlightRoundTrip journals spans (via a hooked tracer), wide events
// (via a hooked event log), and a mark, then reopens the box and checks
// the previous life is replayed intact — the core -flight-dump promise.
func TestFlightRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fr, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("OpenFlight: %v", err)
	}
	if dump := fr.DumpText(); !strings.Contains(dump, "0 wide events, 0 spans, 0 marks recovered") {
		t.Fatalf("fresh box recovered records:\n%s", dump)
	}

	tr := obs.NewTracer(64)
	el := obs.NewEventLog(64)
	fr.Hook(tr, el)

	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	tr.Record(flightSpan(7, 1, obs.SpanSend, base))
	tr.Record(flightSpan(7, 2, obs.SpanDeliver, base.Add(time.Millisecond)))

	ev := obs.NewEvent("n1", 7, "a", "b", "test-ontology", base)
	ev.Retries = 2
	ev.Finish(obs.OutcomeTimeout, base.Add(10*time.Millisecond))
	el.Emit(ev)

	fr.Mark("agent-giveup:b", os.ErrDeadlineExceeded)
	if err := fr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	fr2, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fr2.Close()

	evs, sps := fr2.RecoveredEvents(), fr2.RecoveredSpans()
	if len(evs) != 1 || len(sps) != 2 {
		t.Fatalf("recovered %d events, %d spans; want 1, 2", len(evs), len(sps))
	}
	if evs[0].Trace != 7 || evs[0].Outcome != obs.OutcomeTimeout || evs[0].Retries != 2 {
		t.Fatalf("event did not round-trip: %+v", evs[0])
	}
	if sps[0].Kind != obs.SpanSend || sps[1].Kind != obs.SpanDeliver || sps[1].Trace != 7 {
		t.Fatalf("spans did not round-trip: %+v", sps)
	}

	dump := fr2.DumpText()
	for _, want := range []string{
		"1 wide events, 2 spans, 1 marks recovered",
		"MARK",
		"agent-giveup:b  err=" + os.ErrDeadlineExceeded.Error(),
		"trace=0000000000000007",
		"timeout",
		"span timelines",
		"[n1]",
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("DumpText missing %q:\n%s", want, dump)
		}
	}
}

// The recorder's rings, as flight.go bounds them.
const flightEventCap, flightSpanCap = 256, 1024

// TestFlightRecoveryBounded proves the box replays only the newest
// flightEventCap/flightSpanCap records — the black box is a window, not
// an archive.
func TestFlightRecoveryBounded(t *testing.T) {
	dir := t.TempDir()
	fr, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("OpenFlight: %v", err)
	}
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	const events, spans = flightEventCap + 6, flightSpanCap + 6
	for i := 0; i < spans; i++ {
		if i < events {
			ev := obs.NewEvent("n1", uint64(i), "a", "b", "", base)
			ev.Finish(obs.OutcomeOK, base.Add(time.Millisecond))
			fr.RecordEvent(ev)
		}
		fr.RecordSpan(flightSpan(uint64(i), 1, obs.SpanSend, base))
	}
	fr.Close()

	fr2, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fr2.Close()
	evs, sps := fr2.RecoveredEvents(), fr2.RecoveredSpans()
	if len(evs) != flightEventCap || len(sps) != flightSpanCap {
		t.Fatalf("recovered %d events, %d spans; want %d, %d", len(evs), len(sps), flightEventCap, flightSpanCap)
	}
	// The newest win: traces 0..5 aged out of both rings.
	if evs[0].Trace != 6 || evs[len(evs)-1].Trace != events-1 || sps[0].Trace != 6 || sps[len(sps)-1].Trace != spans-1 {
		t.Fatalf("bounded replay kept wrong window: events %v..%v spans %v..%v",
			evs[0].Trace, evs[len(evs)-1].Trace, sps[0].Trace, sps[len(sps)-1].Trace)
	}
}

// TestFlightGCTrimsSegments journals several segments' worth of spans
// and checks the on-disk window stays at two segment files, the first
// of which is long gone.
func TestFlightGCTrimsSegments(t *testing.T) {
	dir := t.TempDir()
	fr, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("OpenFlight: %v", err)
	}
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 8000; i++ { // ≈1 MiB of spans: four 256 KiB segments
		fr.RecordSpan(flightSpan(uint64(i), 1, obs.SpanRoute, base))
	}
	fr.Close()

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var segs []string
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) > 2 || slices.Contains(segs, "wal-00000001.log") {
		t.Fatalf("gc left %v on disk, want at most the newest two segments", segs)
	}

	// The bounded window still replays cleanly.
	fr2, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("reopen after gc: %v", err)
	}
	defer fr2.Close()
	if len(fr2.RecoveredSpans()) == 0 {
		t.Fatal("no spans recovered from retained segments")
	}
}

// TestFlightSkipsUndecodableRecords plants a frame of non-JSON garbage
// in the journal (a valid WAL record — torn tails are the WAL's job,
// bad payloads are the recorder's) and checks replay skips it, counts
// it, and keeps everything around it.
func TestFlightSkipsUndecodableRecords(t *testing.T) {
	dir := t.TempDir()
	fr, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("OpenFlight: %v", err)
	}
	base := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	fr.RecordSpan(flightSpan(1, 1, obs.SpanSend, base))
	fr.Close()

	w, err := durable.OpenWAL(dir, 0, durable.Options{Sync: durable.SyncOnRotate}, nil)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	if err := w.Append([]byte("not json at all")); err != nil {
		t.Fatalf("Append garbage: %v", err)
	}
	// A well-formed frame with an unknown kind is also skipped.
	if err := w.Append([]byte(`{"k":"future-kind"}`)); err != nil {
		t.Fatalf("Append unknown kind: %v", err)
	}
	w.Close()

	fr2, err := durable.OpenFlight(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fr2.Close()
	if got := len(fr2.RecoveredSpans()); got != 1 {
		t.Fatalf("recovered %d spans, want 1", got)
	}
	if dump := fr2.DumpText(); !strings.Contains(dump, "2 undecodable records skipped") {
		t.Fatalf("dump does not report skipped records:\n%s", dump)
	}
}

// TestFlightNilSafe checks every method tolerates a nil receiver, so
// callers can wire the recorder unconditionally and gate only OpenFlight.
func TestFlightNilSafe(t *testing.T) {
	var fr *durable.FlightRecorder
	fr.RecordEvent(obs.NewEvent("", 0, "", "", "", time.Time{}))
	fr.RecordSpan(obs.Span{})
	fr.Mark("x", nil)
	fr.Hook(nil, nil)
	fr.AttachPlatform(nil)
	if fr.RecoveredEvents() != nil || fr.RecoveredSpans() != nil {
		t.Fatal("nil recorder returned non-nil recovery")
	}
	if err := fr.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
	if err := fr.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	if !strings.Contains(fr.DumpText(), "not open") {
		t.Fatal("nil DumpText should say not open")
	}
}
