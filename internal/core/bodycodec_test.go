package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pervasivegrid/internal/ontology"
)

type jsonBody interface{ EncodeJSON() ([]byte, error) }

// codecProfile is an advertisement as the benchmark's registry holds them.
func codecProfile(i int) ontology.Profile {
	concept := []string{"TemperatureSensor", "HeatSolver"}[i%2]
	p := ontology.Profile{
		Name:    fmt.Sprintf("svc-%04d", 17*i),
		Concept: concept,
		Outputs: []string{concept},
		Properties: map[string]ontology.Value{
			"cost": ontology.Num(float64(1 + 13*i%100)),
			"load": ontology.Num(float64(7 * i % 20)),
			"x":    ontology.Num(float64(31 * i % 100)),
			"y":    ontology.Num(float64(53 * i % 100)),
			"room": ontology.Str(fmt.Sprintf("r%d", i%4)),
		},
		Interface: concept + ".call",
	}
	if concept == "HeatSolver" {
		p.Inputs = []string{"TemperatureSensor"}
	}
	return p
}

// codecReply is a 5-match reply, the shape discover_read's broker sends.
func codecReply() DiscoverReply {
	r := DiscoverReply{OK: true}
	for i := range 5 {
		r.Matches = append(r.Matches, DiscoveredService{Profile: codecProfile(i), Score: 0.9871234567890123 - float64(i)/7})
	}
	return r
}

func codecDiscover() DiscoverRequest {
	return DiscoverRequest{Max: 5, Request: ontology.Request{
		Concept: "TemperatureSensor",
		Constraints: []ontology.Constraint{
			{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(30)},
			{Op: ontology.OpNear, Value: ontology.Num(55)},
		},
		PreferLow: []string{"cost"}, X: 41, Y: 7, HasLoc: true, Max: 5,
	}}
}

func codecAdvertise() AdvertiseRequest {
	return AdvertiseRequest{Profile: codecProfile(3), TTLSeconds: 0.25}
}

// codecLease is the reply to an advertisement, lease_churn's commonest body.
func codecLease() AdvertiseReply {
	return AdvertiseReply{OK: true, LeaseID: 48213, Expires: 1760912345}
}

// sameEncode: the direct encode writes json.Marshal's bytes, or fails where
// it fails.
func sameEncode(t *testing.T, v jsonBody) {
	t.Helper()
	got, errGot := v.EncodeJSON()
	want, errWant := json.Marshal(v)
	if (errGot == nil) != (errWant == nil) || errGot == nil && !bytes.Equal(got, want) {
		t.Fatalf("encode of %#v:\n direct %s (%v)\n json   %s (%v)", v, got, errGot, want, errWant)
	}
}

// sameDecode: decoding data by got's own reader and by json.Unmarshal into
// want, which holds what got holds, gives the same error, or none, and the
// same value; a value both accept encodes back alike.
func sameDecode[T any, P interface {
	*T
	DecodeJSON([]byte) error
}](t *testing.T, data []byte, got, want P) {
	t.Helper()
	errGot := got.DecodeJSON(data)
	errWant := json.Unmarshal(data, want)
	if fmt.Sprint(errGot) != fmt.Sprint(errWant) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decode of %q into %T:\n direct %#v (%v)\n json   %#v (%v)", data, got, *got, errGot, *want, errWant)
	}
	if errGot == nil {
		sameEncode(t, any(*got).(jsonBody))
	}
}

// codecGen draws body values from fuzz bytes: printable names and arbitrary
// ones, integral, fractional and arbitrary floats (NaN and ±Inf among
// them), nil, empty and filled lists and maps.
type codecGen struct{ b []byte }

func (g *codecGen) next() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *codecGen) str() string {
	mode, n := g.next(), int(g.next()%12)
	var s []byte
	for range n {
		c := g.next()
		if mode%4 != 0 {
			c = ' ' + c%95 // printable ASCII, quotes and <>& included
		}
		s = append(s, c)
	}
	return string(s)
}

func (g *codecGen) float() float64 {
	switch g.next() % 4 {
	case 0:
		return float64(int8(g.next()))
	case 1:
		return float64(int16(g.next())<<8|int16(g.next())) / 1000
	case 2:
		var bits uint64
		for range 8 {
			bits = bits<<8 | uint64(g.next())
		}
		return math.Float64frombits(bits)
	}
	return 0
}

// id is 0, a small number or any 64 bits.
func (g *codecGen) id() uint64 {
	switch g.next() % 3 {
	case 0:
		return 0
	case 1:
		return uint64(g.next())
	}
	var bits uint64
	for range 8 {
		bits = bits<<8 | uint64(g.next())
	}
	return bits
}

func (g *codecGen) strs() []string {
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

func (g *codecGen) value() ontology.Value {
	return ontology.Value{Kind: ontology.ValueKind(g.next() % 3), S: g.str(), N: g.float()}
}

func (g *codecGen) values() map[string]ontology.Value {
	n := int(g.next() % 12)
	if n == 0 {
		return nil
	}
	m := map[string]ontology.Value{}
	for range n - 1 {
		m[g.str()] = g.value()
	}
	return m
}

func (g *codecGen) profile() ontology.Profile {
	return ontology.Profile{Name: g.str(), Concept: g.str(), Inputs: g.strs(), Outputs: g.strs(),
		Properties: g.values(), Requirements: g.values(), UUID: g.str(), Interface: g.str()}
}

func (g *codecGen) request() ontology.Request {
	q := ontology.Request{Concept: g.str(), Inputs: g.strs(), Outputs: g.strs()}
	if n := int(g.next() % 4); n > 0 {
		q.Constraints = []ontology.Constraint{}
		for range n - 1 {
			q.Constraints = append(q.Constraints, ontology.Constraint{Property: g.str(), Op: ontology.Op(g.next() % 8), Value: g.value()})
		}
	}
	q.PreferLow, q.X, q.Y, q.HasLoc, q.Max = g.strs(), g.float(), g.float(), g.next()%2 == 0, int(int8(g.next())%3)
	return q
}

func (g *codecGen) reply() DiscoverReply {
	r := DiscoverReply{OK: g.next()%2 == 0, Error: g.str()}
	if n := int(g.next() % 5); n > 0 {
		r.Matches = []DiscoveredService{}
		for range n - 1 {
			r.Matches = append(r.Matches, DiscoveredService{Profile: g.profile(), Score: g.float()})
		}
	}
	return r
}

// codecSeeds are the five bodies as the writer writes them, and bodies
// the direct reader must hand to encoding/json or read as it reads them: a
// failure reply, escapes and non-ASCII, reordered and repeated keys, and
// numbers outside what the writer writes.
func codecSeeds() [][]byte {
	reply, _ := json.Marshal(codecReply())
	discover, _ := json.Marshal(codecDiscover())
	advertise, _ := json.Marshal(codecAdvertise())
	lease, _ := json.Marshal(codecLease())
	edit := func(body []byte, old, new string) []byte {
		return []byte(strings.Replace(string(body), old, new, 1))
	}
	seeds := [][]byte{reply, discover, advertise, lease, []byte(`{"name":"svc-0042"}`),
		[]byte(`{"ok":false,"error":"discovery: profile \"x\" uses unknown concept \"Y\"","matches":null}`),
		[]byte(`{"ok":true,"matches":[]}`),
		[]byte(`{"matches":null,"ok":true}`),
		[]byte(`{"ok":true,"ok":false,"matches":null}`),
		[]byte(` {"ok":true,"matches":null}`),
		[]byte(`{"ok":true,"matches":null}x`),
		edit(reply, "svc-0000", "svc<a>&b"),
		edit(reply, "svc-0000", "svc\u2028"),
		edit(reply, "svc-0000", `svc\u2028`),
		edit(reply, "svc-0000", "svc\xff"),
		edit(reply, `"Kind":1`, `"Kind":1.0`),
		edit(reply, `"cost"`, `"room"`),
		edit(reply, `"Name"`, `"name"`),
		edit(reply, `"Inputs":null`, `"Inputs":[]`),
		edit(reply, `"Requirements":null`, `"Requirements":{}`),
		edit(reply, `"UUID":""`, `"UUID":null`),
		edit(advertise, `"ttlSeconds":0.25`, `"ttlSeconds":+1`),
		edit(advertise, `"ttlSeconds":0.25`, `"ttlSeconds":01`),
		edit(advertise, `"ttlSeconds":0.25`, `"ttlSeconds":-0`),
		edit(advertise, `"ttlSeconds":0.25`, `"ttlSeconds":1e400`),
		edit(advertise, `"ttlSeconds":0.25`, `"ttlSeconds":1E-7`),
		edit(discover, `"max":5`, `"max":-0`),
		edit(discover, `"max":5`, `"max":12345678901234567890`),
		edit(discover, `"Constraints":[`, `"Constraints":[{"Property":"a","Op":1,"Value":{"Kind":0,"S":"b","N":2}},`),
		edit(lease, `48213`, `-0`),
		edit(lease, `48213`, `-1`),
		edit(lease, `48213`, `1.0`),
		edit(lease, `48213`, `9007199254740993`),
		edit(lease, `48213`, `18446744073709551615`),
		edit(lease, `48213`, `18446744073709551616`),
		edit(lease, `"ok":true,`, `"ok":false,"error":"discovery: register \"x\" with non-positive ttl",`),
		[]byte(`{"ok":false,"leaseId":0,"expiresUnix":0}`),
		[]byte(`{"name":"svc<0042>"}`),
		[]byte(`{"name":null}`),
		[]byte(`{}`),
	}
	return seeds
}

// FuzzDiscoveryCodec is the differential test of the broker bodies' codec
// against encoding/json: on arbitrary bytes, every body type decodes to
// the same value and error both ways; on values drawn from the bytes, the
// encode is json.Marshal's, byte for byte (an error for NaN and ±Inf), and
// reads back as json.Unmarshal reads it.
func FuzzDiscoveryCodec(f *testing.F) {
	for _, seed := range codecSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameDecode(t, data, new(DiscoverReply), new(DiscoverReply))
		sameDecode(t, data, new(DiscoverRequest), new(DiscoverRequest))
		sameDecode(t, data, new(AdvertiseRequest), new(AdvertiseRequest))
		sameDecode(t, data, new(AdvertiseReply), new(AdvertiseReply))
		sameDecode(t, data, new(DeregisterRequest), new(DeregisterRequest))
		g := codecGen{data}
		reply := g.reply()
		discover := DiscoverRequest{Request: g.request(), Max: int(int8(g.next()) % 3)}
		advertise := AdvertiseRequest{Profile: g.profile(), TTLSeconds: g.float()}
		lease := AdvertiseReply{OK: g.next()%2 == 0, Error: g.str(), LeaseID: g.id(), Expires: g.float()}
		deregister := DeregisterRequest{Name: g.str()}
		for _, v := range []jsonBody{reply, discover, advertise, lease, deregister} {
			sameEncode(t, v)
		}
		if b, err := reply.EncodeJSON(); err == nil {
			sameDecode(t, b, new(DiscoverReply), new(DiscoverReply))
		}
		if b, err := discover.EncodeJSON(); err == nil {
			sameDecode(t, b, new(DiscoverRequest), new(DiscoverRequest))
		}
		if b, err := advertise.EncodeJSON(); err == nil {
			sameDecode(t, b, new(AdvertiseRequest), new(AdvertiseRequest))
		}
		if b, err := lease.EncodeJSON(); err == nil {
			sameDecode(t, b, new(AdvertiseReply), new(AdvertiseReply))
		}
		if b, err := deregister.EncodeJSON(); err == nil {
			sameDecode(t, b, new(DeregisterRequest), new(DeregisterRequest))
		}
	})
}

// TestDiscoveryCodecMerges: a target that already holds lists and maps,
// which encoding/json merges into and the direct reader would replace,
// decodes as encoding/json decodes it.
func TestDiscoveryCodecMerges(t *testing.T) {
	reply, _ := codecReply().EncodeJSON()
	heldReply := func() *DiscoverReply {
		r := codecReply()
		r.Matches = r.Matches[3:]
		r.Matches[1].Profile.Properties["extra"] = ontology.Num(1)
		return &r
	}
	sameDecode(t, reply, heldReply(), heldReply())
	discover, _ := codecDiscover().EncodeJSON()
	heldDiscover := func() *DiscoverRequest {
		return &DiscoverRequest{Request: ontology.Request{Inputs: []string{"a", "b"}, PreferLow: []string{}}}
	}
	sameDecode(t, discover, heldDiscover(), heldDiscover())
	advertise, _ := codecAdvertise().EncodeJSON()
	heldAdvertise := func() *AdvertiseRequest {
		return &AdvertiseRequest{Profile: ontology.Profile{Requirements: map[string]ontology.Value{"os": ontology.Str("x")}}}
	}
	sameDecode(t, advertise, heldAdvertise(), heldAdvertise())
}

// TestDiscoveryCodecNonFinite: a number JSON cannot hold is refused with
// encoding/json's own error.
func TestDiscoveryCodecNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reply := codecReply()
		reply.Matches[4].Profile.Properties["cost"] = ontology.Num(f)
		advertise := codecAdvertise()
		advertise.TTLSeconds = f
		discover := codecDiscover()
		discover.Request.Y = f
		for _, v := range []jsonBody{reply, advertise, discover} {
			if _, err := v.EncodeJSON(); err == nil {
				t.Fatalf("%T holding %v encoded", v, f)
			}
			sameEncode(t, v)
		}
	}
}

// BenchmarkDiscoveryCodec times the direct codec against encoding/json on
// a 5-match reply, an advertise request and its lease reply.
func BenchmarkDiscoveryCodec(b *testing.B) {
	for _, body := range []struct {
		name  string
		v     jsonBody
		fresh func() any
	}{
		{"reply", codecReply(), func() any { return new(DiscoverReply) }},
		{"advertise", codecAdvertise(), func() any { return new(AdvertiseRequest) }},
		{"lease", codecLease(), func() any { return new(AdvertiseReply) }},
	} {
		data, err := json.Marshal(body.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(body.name+"/direct/encode", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := body.v.EncodeJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/json/encode", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := json.Marshal(body.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/direct/decode", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := body.fresh().(interface{ DecodeJSON([]byte) error }).DecodeJSON(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"/json/decode", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if err := json.Unmarshal(data, body.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
