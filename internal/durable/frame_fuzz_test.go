package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

// walFrame frames rec the way WAL.Append writes it: u32 length, u32
// CRC32 of the payload, then the payload.
func walFrame(rec []byte) []byte {
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(rec)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec))
	return append(frame, rec...)
}

// FuzzWALFrame: the segment decoder never panics and never allocates,
// every frame it accepts lies inside its input with a payload within
// maxRecord, and re-framing an accepted payload gives back the bytes it
// was read from.
func FuzzWALFrame(f *testing.F) {
	valid := walFrame([]byte(`{"k":"fsp","sp":{"trace":7}}`))
	f.Add(slices.Concat(valid, valid))
	f.Add(slices.Concat(valid, valid[:len(valid)-3]))                               // torn tail
	f.Add(make([]byte, frameHeader))                                                // zero length
	f.Add(slices.Concat(binary.LittleEndian.AppendUint32(nil, maxRecord+1), valid)) // length above maxRecord
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := int64(0); ; {
			var rec []byte
			var next int64
			var ok bool
			if n := testing.AllocsPerRun(1, func() { rec, next, ok = nextFrame(data, off) }); n != 0 {
				t.Fatalf("nextFrame at %d allocated %v times", off, n)
			}
			if !ok {
				return
			}
			if len(rec) == 0 || len(rec) > maxRecord {
				t.Fatalf("accepted a %d-byte payload at %d", len(rec), off)
			}
			if next != off+frameHeader+int64(len(rec)) || next > int64(len(data)) {
				t.Fatalf("frame at %d ends at %d, outside the %d-byte input", off, next, len(data))
			}
			if re := walFrame(rec); !bytes.Equal(re, data[off:next]) {
				t.Fatalf("accepted frame at %d re-frames to % x", off, re)
			}
			off = next
		}
	})
}

// A flight record may cost the replay at most flightAllocPerByte heap
// bytes per record byte, plus flightAllocFixed for the decoder's state
// and the recovered ring it lands in. The worst case is an event whose
// phases are empty objects: each "{}," decodes to a 24-byte obs.Phase, and
// the decoder's slice growth measures ~43 bytes per record byte.
const (
	flightAllocPerByte = 64
	flightAllocFixed   = 8 << 10
)

// FuzzFlightRecord: replaying a flight record never panics and allocates
// within the stated bound for any bytes, and every record it accepts lands
// in exactly one recovered ring and re-encodes to itself after one round
// trip.
func FuzzFlightRecord(f *testing.F) {
	at := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	ev := obs.NewEvent("n1", 7, "a", "b", "test-ontology", at)
	ev.AddPhase("attempt-1", time.Millisecond)
	ev.Attrs = map[string]string{"k": "v"}
	ev.Finish(obs.OutcomeTimeout, at.Add(time.Millisecond))
	for _, r := range []flightRec{
		{K: "fev", Ev: &ev},
		{K: "fsp", Sp: &obs.Span{Trace: 7, Seq: 1, Time: at, Node: "n1", Kind: obs.SpanSend, From: "a", To: "b"}},
		{K: "fmk", Mk: &FlightMark{Note: "agent-giveup:b", Err: "deadline", Time: at}},
		{K: "fsp", Ev: &ev}, // a kind that does not name its payload
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"k":"fev","ev":{"phases":[{},{},{},{}],"attrs":{"a":"","b":""}}}`))
	f.Add([]byte(`{"k":"fmk","mk":{"time":"2026-08-09T12:00:00+05:30"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newFlightRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr.replay(0, data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(flightAllocPerByte*len(data)+flightAllocFixed); n > limit {
			t.Fatalf("a %d-byte record allocated %d bytes, past %d", len(data), n, limit)
		}

		if fr.badRecs > 0 {
			return
		}
		events, spans := fr.events.Newest(1), fr.spans.Newest(1)
		var rec flightRec
		switch {
		case fr.events.Len() == 1 && fr.spans.Len()+len(fr.marks) == 0:
			rec = flightRec{K: "fev", Ev: &events[0]}
		case fr.spans.Len() == 1 && fr.events.Len()+len(fr.marks) == 0:
			rec = flightRec{K: "fsp", Sp: &spans[0]}
		case len(fr.marks) == 1 && fr.events.Len()+fr.spans.Len() == 0:
			rec = flightRec{K: "fmk", Mk: &fr.marks[0]}
		default:
			t.Fatalf("an accepted record recovered %d events, %d spans and %d marks, want one record",
				fr.events.Len(), fr.spans.Len(), len(fr.marks))
		}
		enc, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted record does not encode: %v", err)
		}
		var again flightRec
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("accepted record does not decode after encoding: %v", err)
		}
		if re, _ := json.Marshal(again); !bytes.Equal(re, enc) {
			t.Fatalf("accepted record changed in a round trip:\n%s\n%s", enc, re)
		}
	})
}
