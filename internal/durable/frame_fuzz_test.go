package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
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
