package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"pervasivegrid/internal/ontology"
)

// recordGen draws journal records from fuzz bytes: names that are plain,
// that need escaping or that are not UTF-8; nil, empty and filled lists
// and maps; any float; a time anywhere in time.Time's range or near now,
// in UTC or a zone of any offset.
type recordGen struct{ b []byte }

func (g *recordGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *recordGen) u64() uint64 {
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(g.next())
	}
	return bits
}

func (g *recordGen) str() string {
	mode, n := g.next(), int(g.next()%10)
	var s []byte
	for range n {
		c := g.next()
		if mode%4 != 0 {
			c = ' ' + c%95 // printable ASCII, quotes and <>& included
		}
		s = append(s, c)
	}
	if mode%8 == 1 {
		s = append(s, "é "...)
	}
	return string(s)
}

func (g *recordGen) strs() []string {
	n := int(g.next() % 4)
	if n == 0 {
		return nil
	}
	out := []string{}
	for range n - 1 {
		out = append(out, g.str())
	}
	return out
}

func (g *recordGen) values() map[string]ontology.Value {
	n := int(g.next() % 5)
	if n == 0 {
		return nil
	}
	m := map[string]ontology.Value{}
	for range n - 1 {
		f := float64(int16(g.next())<<8|int16(g.next())) / 100
		if g.next()%4 == 0 {
			f = math.Float64frombits(g.u64())
		}
		m[g.str()] = ontology.Value{Kind: ontology.ValueKind(g.next() % 3), S: g.str(), N: f}
	}
	return m
}

func (g *recordGen) profile() *ontology.Profile {
	return &ontology.Profile{Name: g.str(), Concept: g.str(), Inputs: g.strs(), Outputs: g.strs(),
		Properties: g.values(), Requirements: g.values(), UUID: g.str(), Interface: g.str()}
}

func (g *recordGen) time() time.Time {
	sec, nsec := int64(g.u64()), int64(g.u64()%2e9)-5e8
	if g.next()%2 == 0 {
		sec = 1_760_000_000 + int64(int32(binary.BigEndian.Uint32([]byte{g.next(), g.next(), g.next(), g.next()})))
	}
	t := time.Unix(sec, nsec)
	switch g.next() % 3 {
	case 0:
		return t.UTC()
	case 1:
		return t.In(time.FixedZone(g.str(), int(int16(g.next())<<8|int16(g.next()))*3))
	}
	return t.In(time.FixedZone("", int(int32(g.u64()))))
}

// FuzzJournalRecord is the differential test of the journal's record
// writer against encoding/json: a reg record of a drawn profile and
// expiry, and a dereg record of a drawn name, are written as json.Marshal
// writes them, byte for byte, or refused where it refuses them; and replay
// reads what each wrote back to the same record.
func FuzzJournalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x01\x08svc-0042\x01\x11TemperatureSensor\x02\x01\x05\x01x\x00\x00"))
	f.Add([]byte("\x01\x06a\"<&>\\\x00\x04\xff\xfe\x80\x00\x03\x02"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := recordGen{data}
		p := g.profile()
		expires := g.time()
		for _, r := range []walRecord{
			{Kind: kindRegister, Reg: &Registration{Profile: p, Expires: expires}},
			{Kind: kindDeregister, ID: p.Name},
		} {
			got, errGot := ontology.Encode(r, (*walRecord).code, 512)
			want, errWant := json.Marshal(r)
			if (errGot == nil) != (errWant == nil) || errGot == nil && !bytes.Equal(got, want) {
				t.Fatalf("%s record:\n writer %s (%v)\n json   %s (%v)", r.Kind, got, errGot, want, errWant)
			}
			if errGot != nil {
				continue
			}
			var fromGot, fromWant walRecord
			if err := json.Unmarshal(got, &fromGot); err != nil {
				t.Fatalf("replay of %s: %v", got, err)
			}
			if err := json.Unmarshal(want, &fromWant); err != nil {
				t.Fatalf("replay of %s: %v", want, err)
			}
			if r.Reg != nil {
				// Replay gives the instant back, in a zone of its own,
				// unless the zone's offset has seconds, which RFC 3339
				// drops.
				_, offset := expires.Zone()
				if e := fromGot.Reg.Expires; !e.Equal(fromWant.Reg.Expires) || offset%60 == 0 && !e.Equal(expires) {
					t.Fatalf("expiry %v replayed as %v and %v", expires, e, fromWant.Reg.Expires)
				}
				fromGot.Reg.Expires, fromWant.Reg.Expires = time.Time{}, time.Time{}
			}
			if !reflect.DeepEqual(fromGot, fromWant) {
				t.Fatalf("%s replayed as %+v, json.Marshal's bytes as %+v", got, fromGot, fromWant)
			}
		}
	})
}
