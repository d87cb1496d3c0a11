package discovery

import (
	"maps"
	"slices"

	"pervasivegrid/internal/ontology"
)

// A registry view carries its advertisements' properties as columns, one
// per property key, so that a constraint or a preference reads a cell by
// the candidate's slot instead of hashing into its property map (DESIGN.md
// "Discovery read path", Columns).

// What a cell holds.
const (
	cellAbsent uint8 = iota // the profile has no such property
	cellNumber              // a number with S == "", in num
	cellString              // a string with N == 0, in str
	cellOdd                 // any other value: read the profile's map
)

// sparseCells bounds the cells a column may spend per value it holds: a key
// that would take more is read from the profiles' maps instead.
const sparseCells = 32

// column holds one property key's values by slot, from the first slot
// placed with the key: kind[s-from] says what slot s holds, and num or str,
// each allocated only once a value needs it, holds it at the same index. A
// string cell holds the string's index in strs, where each distinct string
// is kept once. A cell is written once, past the length any published view
// has copied, and strs only grows, so a view reads its copy of the headers
// without a lock.
type column struct {
	from   int32
	kind   []uint8
	num    []float64
	str    []int32
	strs   []string
	code   map[string]int32 // index in strs by string; only the registry reads it
	values int              // slots placed with the key
	size   int              // slots from the first placed with the key to the last
	// sparse marks a key that would cost more than sparseCells cells per
	// value: it keeps no cells and is read from the maps.
	sparse bool
}

// columns are the registry's property columns for every slot given out
// since the last full rebuild, kept under Registry.mu. A profile gets its
// slot when it enters a view; its cells are written when a lookup first
// needs a view's columns, so a registry nobody constrains never writes one.
type columns struct {
	at      map[string]int32 // key → index in cols
	shared  bool             // a view holds at: copy it before adding a key
	cols    []column
	slots   int32               // slots given out
	pending []*ontology.Profile // the last len(pending) slots', not yet written
	epoch   int                 // full rebuilds: slots of another epoch mean nothing here
}

// reset starts fresh columns, for a full rebuild of n profiles.
func (c *columns) reset(n int) {
	c.at, c.shared, c.cols, c.slots = map[string]int32{}, false, nil, 0
	c.pending = make([]*ontology.Profile, 0, n)
	c.epoch++
}

// place gives p the next slot; its cells wait for write.
func (c *columns) place(p *ontology.Profile) int32 {
	c.pending = append(c.pending, p)
	c.slots++
	return c.slots - 1
}

// write writes the cells of the pending profiles. It measures their
// columns first, so that a column is allocated once at the length they
// need, and a key too sparse for a column turns sparse before any of their
// cells is written.
func (c *columns) write() {
	first := c.slots - int32(len(c.pending))
	for k, p := range c.pending {
		s := first + int32(k)
		for key := range p.Properties {
			col := &c.cols[c.index(key, s)]
			col.values++
			col.size = int(s+1) - int(col.from)
		}
	}
	for k, p := range c.pending {
		s := first + int32(k)
		for key, v := range p.Properties {
			c.cols[c.at[key]].set(s, v)
		}
	}
	c.pending = nil
}

// index returns the index of key's column, starting one at slot s if it
// has none.
func (c *columns) index(key string, s int32) int32 {
	i, ok := c.at[key]
	if !ok {
		if c.shared {
			c.at, c.shared = maps.Clone(c.at), false
		}
		i = int32(len(c.cols))
		c.at[key] = i
		c.cols = append(c.cols, column{from: s})
	}
	return i
}

// publish returns what a view reads the columns through: the key index,
// shared until a key is added, and a copy of every column's headers.
func (c *columns) publish() (map[string]int32, []column) {
	c.shared = true
	return c.at, slices.Clone(c.cols)
}

// cellOf says what a cell holding v holds.
func cellOf(v ontology.Value) uint8 {
	switch {
	case v.Kind == ontology.KindNumber && v.S == "":
		return cellNumber
	case v.Kind == ontology.KindString && v.N == 0:
		return cellString
	}
	return cellOdd
}

// set writes v into slot s, a slot past the column's end. A column that
// spans more than sparseCells slots per value turns sparse.
func (c *column) set(s int32, v ontology.Value) {
	if !c.sparse && c.size > sparseCells*c.values {
		c.kind, c.num, c.str, c.strs, c.code, c.sparse = nil, nil, nil, nil, nil, true
	}
	if c.sparse {
		return
	}
	i := int(s - c.from)
	kind := cellOf(v)
	switch kind {
	case cellNumber:
		c.num = extend(c.num, i, c.size)
		c.num[i] = v.N
	case cellString:
		k, ok := c.code[v.S]
		if !ok {
			if c.code == nil {
				c.code = map[string]int32{}
			}
			k = int32(len(c.strs))
			c.strs = append(c.strs, v.S)
			c.code[v.S] = k
		}
		c.str = extend(c.str, i, c.size)
		c.str[i] = k
	}
	c.kind = extend(c.kind, i, c.size)
	c.kind[i] = kind
}

// extend returns cells long enough to hold index i, every new cell zero. A
// column's cells are first allocated at its measured size.
func extend[T any](cells []T, i, size int) []T {
	if cells == nil {
		cells = make([]T, 0, max(i+1, size))
	}
	return append(cells, make([]T, i+1-len(cells))...)
}

// field reads one property of the candidates: from a view's column by
// slot, or from each profile's map when col is nil.
type field struct {
	key string
	col *column
}

// noColumn is the column of a key no profile in a view has.
var noColumn column

// field binds key to the view's column for it; without a view or its
// columns, or for a sparse key, it reads the maps.
func (v *snapshot) field(key string) field {
	f := field{key: key}
	if v != nil && v.at != nil {
		if i, ok := v.at[key]; !ok {
			f.col = &noColumn
		} else if !v.cols[i].sparse {
			f.col = &v.cols[i]
		}
	}
	return f
}

// get returns the property of p, whose slot is s.
func (f field) get(p *ontology.Profile, s int32) (v ontology.Value, ok bool) {
	c := f.col
	if c == nil {
		return p.Prop(f.key)
	}
	i := int(s - c.from)
	if i < 0 || i >= len(c.kind) {
		return v, false
	}
	switch c.kind[i] {
	case cellNumber:
		v.Kind, v.N = ontology.KindNumber, c.num[i]
	case cellString:
		v.Kind, v.S = ontology.KindString, c.strs[c.str[i]]
	case cellOdd:
		return p.Prop(f.key)
	default:
		return v, false
	}
	return v, true
}

// constraint is one of a request's constraints bound to the fields it
// reads: c.Property's, or "x" and "y" for OpNear.
type constraint struct {
	c    ontology.Constraint
	v, y field
}

func (v *snapshot) constraint(c ontology.Constraint) constraint {
	b := constraint{c: c, v: v.field(c.Property)}
	if c.Op == ontology.OpNear {
		b.v, b.y = v.field("x"), v.field("y")
	}
	return b
}

// holds reports whether p, whose slot is s, meets the constraint. The test
// is the one predicate ontology.Satisfies also calls, on values read from
// the fields.
func (b *constraint) holds(p *ontology.Profile, s int32, req *ontology.Request) bool {
	v, ok := b.v.get(p, s)
	var y ontology.Value
	if b.c.Op == ontology.OpNear {
		var oky bool
		y, oky = b.y.get(p, s)
		ok = ok && oky
	}
	return b.c.Holds(v, y, ok, req)
}

// filter returns the members of the pool that meet the constraint, in
// order, in keep's array, which has room for them all and may be the pool's
// own.
func (b *constraint) filter(pool survivors, keep []int32, req *ontology.Request) []int32 {
	n := 0
	keep = keep[:pool.len()]
	for j := range keep {
		i := pool.index(j)
		keep[n] = int32(i) // kept if it holds: no branch to mispredict
		if b.holds(pool.candidates[i], pool.slotOf(i), req) {
			n++
		}
	}
	return keep[:n]
}
