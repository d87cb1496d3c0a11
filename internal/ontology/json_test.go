package ontology

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// jsonShape is a Profile and a Request coded one after the other, the way
// a body codes its fields.
type jsonShape struct {
	P Profile
	Q Request
}

func (s *jsonShape) code(c *JSON) {
	c.Profile(`{"P":`, &s.P)
	c.Request(`,"Q":`, &s.Q)
	c.Lit("}")
}

func codedShape() jsonShape {
	return jsonShape{
		P: Profile{
			Name:       "printer-3",
			Concept:    "ColorPrinter",
			Inputs:     []string{},
			Outputs:    []string{"Document"},
			Properties: map[string]Value{"y": Num(-2.5), "cost": Num(3), "color": Str("cyan"), "x": Num(0.000125)},
			UUID:       "0000-1",
			Interface:  "Printer.printIt",
		},
		Q: Request{
			Concept:     "Printer",
			Constraints: []Constraint{{Property: "cost", Op: OpLe, Value: Num(4)}, {Op: OpNear, Value: Num(1e20)}},
			PreferLow:   []string{"cost"},
			X:           -0.5, Y: 7, HasLoc: true, Max: 2,
		},
	}
}

// TestJSONWritesAndReadsEncodingJSONsBytes: the codec writes a profile and
// a request as json.Marshal does, and reads them back as json.Unmarshal
// does.
func TestJSONWritesAndReadsEncodingJSONsBytes(t *testing.T) {
	for _, s := range []jsonShape{codedShape(), {}} {
		w := JSON{}
		s.code(&w)
		want, err := json.Marshal(s)
		if err != nil || w.Bad || string(w.B) != string(want) {
			t.Fatalf("wrote %s (bad %v), json.Marshal %s (%v)", w.B, w.Bad, want, err)
		}
		var got jsonShape
		r := JSON{B: want, Read: true}
		if got.code(&r); !r.End() || !reflect.DeepEqual(got, s) {
			t.Fatalf("read %+v (end %v), want %+v", got, r.End(), s)
		}
	}
}

// TestJSONGivesUp: what the codec does not write, or does not read, sets
// Bad, and a read stops there.
func TestJSONGivesUp(t *testing.T) {
	for name, edit := range map[string]func(*jsonShape){
		"escaped string": func(s *jsonShape) { s.P.Name = `a"b` },
		"html":           func(s *jsonShape) { s.P.Interface = "<p>" },
		"non-ASCII":      func(s *jsonShape) { s.Q.Concept = "Druckeré" },
		"NaN":            func(s *jsonShape) { s.Q.X = math.NaN() },
		"infinity":       func(s *jsonShape) { s.P.Properties["cost"] = Num(math.Inf(-1)) },
		"exponent":       func(s *jsonShape) { s.Q.Y = 1e-7 },
	} {
		s := codedShape()
		edit(&s)
		w := JSON{}
		if s.code(&w); !w.Bad {
			t.Errorf("%s: wrote %s", name, w.B)
		}
	}
	body, _ := json.Marshal(codedShape())
	for name, edit := range map[string][2]string{
		"whitespace":     {`{"P":`, `{ "P":`},
		"key case":       {`"Name"`, `"name"`},
		"escape":         {`printer-3`, `printer\u002d3`},
		"leading zero":   {`"HasLoc":true,"Max":2`, `"HasLoc":true,"Max":02`},
		"fraction int":   {`"Op":3`, `"Op":3.0`},
		"exponent":       {`"N":4}`, `"N":4e0}`},
		"trailing comma": {`["Document"]`, `["Document",]`},
		"missing comma":  {`},"cost":`, `}"cost":`},
		"null string":    {`"UUID":"0000-1"`, `"UUID":null`},
		"bad bool":       {`"HasLoc":true`, `"HasLoc":yes`},
		"truncated":      {`"Printer.printIt"}`, `"Printer.printIt`},
	} {
		in := strings.Replace(string(body), edit[0], edit[1], 1)
		if in == string(body) {
			t.Fatalf("%s: %q is not in %s", name, edit[0], body)
		}
		var got jsonShape
		r := JSON{B: []byte(in), Read: true}
		if got.code(&r); r.End() {
			t.Errorf("%s: read %s", name, in)
		}
	}
	held := jsonShape{P: Profile{Outputs: []string{"x"}}}
	r := JSON{B: body, Read: true}
	if held.code(&r); !r.Bad {
		t.Error("read into a list it would have replaced")
	}
}

// TestJSONTime: a time is written as time.Time's MarshalJSON writes it, and
// one it refuses (a year outside 0–9999, a zone a day or more from UTC)
// sets Bad.
func TestJSONTime(t *testing.T) {
	at := time.Date(2026, 10, 19, 21, 39, 19, 120034000, time.UTC)
	for _, tm := range []time.Time{at, at.Truncate(time.Second), at.Local(), {},
		at.In(time.FixedZone("", 5*3600+30*60)), at.In(time.FixedZone("", -24*3600+1)),
		at.In(time.FixedZone("", 24*3600)), at.In(time.FixedZone("", -24*3600)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC), time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC)} {
		w := JSON{}
		w.Time("", &tm)
		want, err := tm.MarshalJSON()
		if w.Bad != (err != nil) || err == nil && string(w.B) != string(want) {
			t.Errorf("%v: wrote %s (bad %v), MarshalJSON %s (%v)", tm, w.B, w.Bad, want, err)
		}
	}
}

// TestJSONUint: an unsigned number is written as encoding/json writes it up
// to 2^63, and read as it reads it up to 2^53; a sign, even on 0, sets Bad.
func TestJSONUint(t *testing.T) {
	for _, n := range []uint64{0, 7, 1<<53 - 1, 1<<63 - 1} {
		w := JSON{}
		w.Uint("", &n)
		if want, _ := json.Marshal(n); w.Bad || string(w.B) != string(want) {
			t.Errorf("%d: wrote %s (bad %v), json.Marshal %s", n, w.B, w.Bad, want)
		}
	}
	big := uint64(1 << 63)
	w := JSON{}
	if w.Uint("", &big); !w.Bad {
		t.Errorf("2^63: wrote %s", w.B)
	}
	for in, ok := range map[string]bool{"0": true, "9007199254740991": true, "-0": false, "-1": false, "1.0": false, "9007199254740992": false} {
		var n uint64
		r := JSON{B: []byte(in), Read: true}
		if r.Uint("", &n); r.End() != ok {
			t.Errorf("read %s: %d, end %v", in, n, r.End())
		}
	}
}
