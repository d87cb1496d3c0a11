package ontology

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"
)

// JSON codes the wire shapes of Profile, Value, Constraint and Request, of
// which a body type builds its own: each method codes its shape after a
// key, appending it to B or, with Read set, reading it from B, exactly as
// encoding/json writes it. Anything else sets Bad, and the body goes to
// encoding/json (DESIGN.md "The discovery bodies' codec").
type JSON struct {
	B         []byte
	Read, Bad bool
	i         int
}

// Encode writes v by code, in a buffer of size bytes to start with, and
// where code cannot, by encoding/json, which must find no method on T.
func Encode[T any](v T, code func(*T, *JSON), size int) ([]byte, error) {
	c := JSON{B: make([]byte, 0, size)}
	if code(&v, &c); c.Bad {
		return json.Marshal(v)
	}
	return c.B, nil
}

// Decode reads data into *v by code, and where code cannot, puts *v back
// and reads it by encoding/json.
func Decode[T any](v *T, code func(*T, *JSON), data []byte) error {
	if v != nil {
		was, c := *v, JSON{B: data, Read: true}
		if code(v, &c); c.End() {
			return nil
		}
		*v = was
	}
	return json.Unmarshal(data, v)
}

// Lit writes s, or reads it: it must come next.
func (c *JSON) Lit(s string) { c.Bad = c.Bad || !c.Opt(s, true) }

// Opt writes s if set, or reads it if it comes next, and reports whether
// it did: s is the key of a field encoding/json omits when it is empty.
func (c *JSON) Opt(s string, set bool) bool {
	if !c.Read {
		if set {
			c.B = append(c.B, s...)
		}
		return set
	}
	if c.Bad || len(c.B)-c.i < len(s) || string(c.B[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// End reports whether all of B was read, and read well.
func (c *JSON) End() bool { return !c.Bad && c.i == len(c.B) }

// Str codes *s, whose bytes must all be plain.
func (c *JSON) Str(key string, s *string) {
	c.Lit(key)
	c.Lit(`"`)
	if !c.Read {
		c.Bad = c.Bad || plain(*s) < len(*s)
		c.B = append(c.B, *s...)
	} else if n := plain(c.B[c.i:]); !c.Bad {
		*s, c.i = string(c.B[c.i:c.i+n]), c.i+n
	}
	c.Lit(`"`)
}

// plain returns how many of b's first bytes encoding/json writes in a
// string as they are: printable ASCII but '"', '\\', '<', '>' and '&'.
func plain[S string | []byte](b S) int {
	for i := 0; i < len(b); i++ {
		if c := b[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return i
		}
	}
	return len(b)
}

// number reads a number by the JSON grammar, less the exponent form, and
// reports whether it has no fraction.
func (c *JSON) number() (float64, bool) {
	b, at, i := c.B, c.i, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	j := digits(b, i)
	ok, integer := j > i && (b[i] != '0' || j == i+1), true // no leading zero
	if j < len(b) && b[j] == '.' {
		i, j = j+1, digits(b, j+1)
		ok, integer = ok && j > i, false
	}
	f, err := strconv.ParseFloat(string(b[at:j]), 64)
	c.Bad, c.i = c.Bad || !ok || err != nil, j
	return f, integer
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// Float codes *f as encoding/json writes it from 1e-6 to 1e21 and at 0,
// which is without an exponent.
func (c *JSON) Float(key string, f *float64) {
	c.Lit(key)
	if c.Read {
		*f, _ = c.number()
		return
	}
	switch abs := math.Abs(*f); {
	case abs < 1e15 && *f == math.Trunc(*f) && !math.Signbit(*f):
		c.B = strconv.AppendInt(c.B, int64(*f), 10) // what AppendFloat writes, sooner
	case abs == 0 || abs >= 1e-6 && abs < 1e21:
		c.B = strconv.AppendFloat(c.B, *f, 'f', -1, 64)
	default: // NaN, ±Inf, which encoding/json refuses, or the exponent form
		c.Bad = true
	}
}

// Int codes *n; read, an integer a float64 holds exactly.
func (c *JSON) Int(key string, n *int) {
	c.Lit(key)
	if !c.Read {
		c.B = strconv.AppendInt(c.B, int64(*n), 10)
		return
	}
	f, integer := c.number()
	*n, c.Bad = int(f), c.Bad || !integer || math.Abs(f) >= 1<<53
}

// Uint codes *n as Int does. Written, 2^63 and above set Bad; read, so
// does a sign, even on 0, which encoding/json refuses for an unsigned
// field.
func (c *JSON) Uint(key string, n *uint64) {
	c.Lit(key)
	i := int(*n)
	c.Bad = c.Bad || c.Opt("-", false)
	c.Int("", &i)
	*n, c.Bad = uint64(i), c.Bad || i < 0
}

// Time writes *t as time.Time's MarshalJSON does: RFC 3339 with
// nanoseconds, quoted. It sets Bad where that fails, for a year outside
// 0–9999 or a zone a day or more from UTC, and when reading.
func (c *JSON) Time(key string, t *time.Time) {
	c.Lit(key)
	_, zone := t.Zone()
	if y := t.Year(); c.Read || y < 0 || y > 9999 || zone <= -24*3600 || zone >= 24*3600 {
		c.Bad = true
		return
	}
	c.B = append(t.AppendFormat(append(c.B, '"'), time.RFC3339Nano), '"')
}

// Bool codes *b; written, it stores *b back.
func (c *JSON) Bool(key string, b *bool) {
	c.Lit(key)
	if *b = c.Opt("true", *b); !*b {
		c.Lit("false")
	}
}

// open codes key and then null, for a nil list or map, or begin; it
// reports whether items follow. A list or map to read into must be nil.
// Item i of n follows unless the end does, Opt(end, i == n), and after a
// ',' if i > 0; a missing ',' ends the items, and the Lit after them fails.
func (c *JSON) open(key, begin string, isNil bool) bool {
	c.Lit(key)
	c.Bad = c.Bad || c.Read && !isNil
	if c.Opt("null", isNil) {
		return false
	}
	c.Lit(begin)
	return !c.Bad
}

// List codes *list, an array or null, each element by each.
func List[T any](c *JSON, key string, list *[]T, each func(*T)) {
	if !c.open(key, "[", *list == nil) {
		return
	}
	if c.Read {
		*list = []T{}
	}
	for i := 0; !c.Bad && !c.Opt("]", i == len(*list)) && (i == 0 || c.Opt(",", true)); i++ {
		if c.Read {
			*list = append(*list, *new(T))
		}
		each(&(*list)[i])
	}
}

func (c *JSON) str(s *string) { c.Str("", s) }

// values codes a map, written with its keys in order as encoding/json
// writes them, read with them in any order and the last of a repeated key
// winning, as encoding/json reads them.
func (c *JSON) values(key string, m *map[string]Value) {
	if !c.open(key, "{", *m == nil) {
		return
	}
	var buf [8]string
	keys := buf[:0]
	for k := range *m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if c.Read {
		*m = map[string]Value{}
	}
	for i := 0; !c.Bad && !c.Opt("}", i == len(keys)) && (i == 0 || c.Opt(",", true)); i++ {
		k, v := "", Value{}
		if !c.Read {
			k, v = keys[i], (*m)[keys[i]]
		}
		c.Str("", &k)
		if c.value(":", &v); c.Read {
			(*m)[k] = v
		}
	}
}

func (c *JSON) value(key string, v *Value) {
	c.Lit(key)
	c.Int(`{"Kind":`, (*int)(&v.Kind))
	c.Str(`,"S":`, &v.S)
	c.Float(`,"N":`, &v.N)
	c.Lit("}")
}

// Profile codes p.
func (c *JSON) Profile(key string, p *Profile) {
	c.Lit(key)
	c.Str(`{"Name":`, &p.Name)
	c.Str(`,"Concept":`, &p.Concept)
	List(c, `,"Inputs":`, &p.Inputs, c.str)
	List(c, `,"Outputs":`, &p.Outputs, c.str)
	c.values(`,"Properties":`, &p.Properties)
	c.values(`,"Requirements":`, &p.Requirements)
	c.Str(`,"UUID":`, &p.UUID)
	c.Str(`,"Interface":`, &p.Interface)
	c.Lit("}")
}

// Request codes q.
func (c *JSON) Request(key string, q *Request) {
	c.Lit(key)
	c.Str(`{"Concept":`, &q.Concept)
	List(c, `,"Inputs":`, &q.Inputs, c.str)
	List(c, `,"Outputs":`, &q.Outputs, c.str)
	List(c, `,"Constraints":`, &q.Constraints, func(k *Constraint) {
		c.Str(`{"Property":`, &k.Property)
		c.Int(`,"Op":`, (*int)(&k.Op))
		c.value(`,"Value":`, &k.Value)
		c.Lit("}")
	})
	List(c, `,"PreferLow":`, &q.PreferLow, c.str)
	c.Float(`,"X":`, &q.X)
	c.Float(`,"Y":`, &q.Y)
	c.Bool(`,"HasLoc":`, &q.HasLoc)
	if c.Opt(`,"Max":`, q.Max != 0) {
		c.Int("", &q.Max)
	}
	c.Lit("}")
}
