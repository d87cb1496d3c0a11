package discovery

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// lookupAllocs is what a steady read-only lookup through the broker
// allocates, whatever the registry's size: the constraint survivors, the
// preference ranges, the result and the signature slots. The view's
// columns cost nothing per lookup.
const lookupAllocs = 4

// composeAllocs is what a steady lookup with no constraint and no
// preference allocates: the result. The signatures it ranks stay on the
// stack.
const composeAllocs = 1

// TestRegistryLookupAllocs pins the allocations of a top-5 lookup over
// 2 000 profiles, constrained on a number, a string and a location and
// ranked by a preference, and of a composition step's top-3 lookup.
func TestRegistryLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	broker, _, _ := benchBroker(t, 2000, benchProfile)
	for _, req := range benchRequests(5)[:3] {
		if got := broker.Lookup(req, 5); len(got) != 5 {
			t.Fatalf("%d matches, want 5 (request %+v)", len(got), req)
		}
		if got := testing.AllocsPerRun(50, func() { broker.Lookup(req, 5) }); got != lookupAllocs {
			t.Fatalf("a lookup constrained by %v allocates %v times, pinned at %d", req.Constraints, got, lookupAllocs)
		}
	}
	if got := broker.Lookup(composeRequest, 3); len(got) != 3 {
		t.Fatalf("%d matches, want 3 (request %+v)", len(got), composeRequest)
	}
	if got := testing.AllocsPerRun(50, func() { broker.Lookup(composeRequest, 3) }); got != composeAllocs {
		t.Fatalf("a composition step's lookup allocates %v times, pinned at %d", got, composeAllocs)
	}
}

// TestRegistryCompactsColumns: re-advertising one name at a time merges,
// each time giving the new profile a slot, until slots outnumber entries
// 2:1; the next rebuild is full and starts the columns afresh. Lookups read
// the right cells throughout.
func TestRegistryCompactsColumns(t *testing.T) {
	const n = 40
	r := NewRegistry()
	r.Clock = obs.NewFakeClock()
	r.Metrics = obs.NewRegistry()
	rebuilds := func(kind string) float64 {
		return r.Metrics.Counter("discovery_view_rebuilds_total", "kind", kind).Value()
	}
	advertise := func(i, cost int) {
		p := &ontology.Profile{Name: fmt.Sprintf("svc-%02d", i), Concept: "Service",
			Properties: map[string]ontology.Value{"cost": ontology.Num(float64(cost))}}
		if _, err := r.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := range n {
		advertise(i, 100+i)
	}
	m := NewSemanticMatcher(ontology.Pervasive())
	cheapest := ontology.Request{Concept: "Service", PreferLow: []string{"cost"}, Max: 1,
		Constraints: []ontology.Constraint{{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(1000)}}}
	for k := 0; ; k++ {
		advertise(k%n, -k) // now the cheapest
		if got := r.Lookup(m, cheapest); len(got) != 1 || got[0].Profile.Name != fmt.Sprintf("svc-%02d", k%n) {
			t.Fatalf("after %d re-advertisements the cheapest is %v", k+1, got)
		}
		if rebuilds("full") == 2 {
			// The first read was full; each one after it merged and
			// placed one profile, until n+k-1 slots outnumbered n
			// entries 2:1.
			if k != n+2 || rebuilds("merge") != n+1 {
				t.Fatalf("compacted at re-advertisement %d after %v merges, want %d after %d", k+1, rebuilds("merge"), n+3, n+1)
			}
			break
		}
		if k > 2*n {
			t.Fatalf("%v merges and no compaction", rebuilds("merge"))
		}
	}
	r.mu.Lock()
	slots := r.props.slots
	r.mu.Unlock()
	if slots != n {
		t.Fatalf("%d slots after compaction, want %d", slots, n)
	}
}

// TestColumnsKeepTheirEpoch: a view read before a full rebuild gets no
// columns after it, for its slots would index cells of the new epoch; it
// is read from the maps.
func TestColumnsKeepTheirEpoch(t *testing.T) {
	r := NewRegistry()
	advertise := func(i, cost int) {
		p := &ontology.Profile{Name: fmt.Sprintf("svc-%d", i), Concept: "Service",
			Properties: map[string]ontology.Value{"cost": ontology.Num(float64(cost))}}
		if _, err := r.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 8 {
		advertise(i, i)
	}
	old := r.view()
	for i := range 8 {
		advertise(i, 8-i) // every name touched: the next read is a full rebuild
	}
	r.Len()
	if c := r.columns(old); c.at != nil {
		t.Fatal("a view of the last epoch got this epoch's columns")
	}
	cheapest := ontology.Request{Concept: "Service", PreferLow: []string{"cost"}, Max: 1}
	if got := r.Lookup(NewSemanticMatcher(ontology.Pervasive()), cheapest); len(got) != 1 || got[0].Profile.Name != "svc-7" {
		t.Fatalf("the cheapest after the rebuild is %v, want svc-7", got)
	}
}

// TestColumnSparseKey: a key too rare for a column is read from the maps,
// and one held by every profile is not. A registry never constrained has
// no columns at all.
func TestColumnSparseKey(t *testing.T) {
	r := NewRegistry()
	for i := range 200 {
		p := &ontology.Profile{Name: fmt.Sprintf("svc-%03d", i), Concept: "Service",
			Properties: map[string]ontology.Value{"cost": ontology.Num(float64(i))}}
		if i == 0 || i == 199 {
			p.Properties["rare"] = ontology.Str("yes")
		}
		if _, err := r.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len(); r.view().at != nil {
		t.Fatal("columns written before any lookup read them")
	}
	req := ontology.Request{Concept: "Service", Constraints: []ontology.Constraint{
		{Property: "rare", Op: ontology.OpEq, Value: ontology.Str("yes")},
		{Property: "cost", Op: ontology.OpGt, Value: ontology.Num(0)}}}
	got := r.Lookup(NewSemanticMatcher(ontology.Pervasive()), req)
	if len(got) != 1 || got[0].Profile.Name != "svc-199" {
		t.Fatalf("rare and costly: %v, want svc-199", got)
	}
	view := r.view() // the constrained lookup published it with its columns
	if f := view.field("rare"); f.col != nil {
		t.Fatalf("a key in 2 of 200 profiles has a column of %d cells", len(f.col.kind))
	}
	if f := view.field("cost"); f.col == nil || len(f.col.num) != 200 {
		t.Fatalf("a key in every profile has no column of 200 cells: %+v", f.col)
	}
}

// fuzzValue is the property a fuzz input describes: absent, or any Kind
// with any S and N.
func fuzzValue(kind uint8, s string, n float64) (ontology.Value, bool) {
	if kind%5 == 4 {
		return ontology.Value{}, false
	}
	return ontology.Value{Kind: ontology.ValueKind(kind%5) - 1, S: s, N: n}, true
}

// FuzzColumnSatisfies: whatever a property holds, reading it from the
// view's column gives the constraint test ontology.Satisfies gives on the
// profile's map, the preference range and score that reading the maps
// gives (bit for bit), and Registry.Lookup what the reference gives. A
// preference range is finite whatever the values it is measured over.
func FuzzColumnSatisfies(f *testing.F) {
	f.Add(uint8(2), "", 3.0, uint8(2), "", 1.0, uint8(2), "", 2.0, uint8(4), uint8(2), "", 4.0, 1.0, 2.0, true, uint8(0))
	f.Add(uint8(1), "r1", 0.0, uint8(1), "n/a", 0.0, uint8(4), "", 0.0, uint8(0), uint8(1), "r1", 0.0, 0.0, 0.0, false, uint8(1))
	f.Add(uint8(2), "n", 3.0, uint8(1), "s", 2.0, uint8(0), "", 1.0, uint8(6), uint8(2), "", 5.0, 1.0, 1.0, true, uint8(2))
	f.Add(uint8(2), "", math.NaN(), uint8(2), "", math.Inf(1), uint8(2), "", -0.0, uint8(3), uint8(2), "", math.NaN(), 0.0, 0.0, true, uint8(3))
	f.Add(uint8(1), "r1", 1.0, uint8(4), "", 0.0, uint8(4), "", 0.0, uint8(0), uint8(1), "r1", 0.0, 0.0, 0.0, false, uint8(1))
	f.Add(uint8(0), "", 7.0, uint8(3), "x", 0.0, uint8(2), "", 1.0, uint8(1), uint8(0), "", 7.0, 0.0, 0.0, false, uint8(0))
	onto := ontology.Pervasive()
	m := NewSemanticMatcher(onto)
	f.Fuzz(func(t *testing.T, kind uint8, s string, n float64, xk uint8, xs string, xn float64, yk uint8, ys string, yn float64,
		op, ck uint8, cs string, cn float64, rx, ry float64, hasLoc bool, an uint8) {
		p := &ontology.Profile{Name: "m", Concept: "Service", Properties: map[string]ontology.Value{}}
		for _, prop := range []struct {
			key  string
			kind uint8
			s    string
			n    float64
		}{{"p", kind, s, n}, {"x", xk, xs, xn}, {"y", yk, ys, yn}} {
			if v, ok := fuzzValue(prop.kind, prop.s, prop.n); ok {
				p.Properties[prop.key] = v
			}
		}
		cv, _ := fuzzValue(ck, cs, cn)
		c := ontology.Constraint{Property: "p", Op: ontology.Op(op % 8), Value: cv}
		req := ontology.Request{Concept: "Service", X: rx, Y: ry, HasLoc: hasLoc,
			Constraints: []ontology.Constraint{c}, PreferLow: []string{"p", "x"}}

		// Neighbours on either side put the profile's cells off the
		// columns' first slot and give its keys another kind of value.
		// The first, met first, holds a preference value that may be
		// NaN or an infinity.
		r := NewRegistry()
		r.Clock = obs.NewFakeClock()
		ap := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1)}[an%4]
		for _, q := range []*ontology.Profile{p,
			{Name: "a", Concept: "Service", Properties: map[string]ontology.Value{"p": ontology.Num(ap), "x": ontology.Str("a")}},
			{Name: "z", Concept: "Service", Properties: map[string]ontology.Value{"y": ontology.Num(2)}}} {
			if _, err := r.Register(q, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		view := r.columns(r.view())
		pool := survivors{candidates: view.profiles, slot: view.slot}
		b := view.constraint(c)
		kept := b.filter(pool, make([]int32, len(view.profiles)), &req)
		for i, q := range view.profiles {
			if want := ontology.Satisfies(q, c, req); slices.Contains(kept, int32(i)) != want {
				t.Fatalf("%s %+v: the columns say %v, Satisfies %v (constraint %+v)", q.Name, q.Properties, !want, want, c)
			}
		}

		cols := prefRanges(req.PreferLow, pool, view)
		maps := prefRanges(req.PreferLow, survivors{candidates: view.profiles}, nil)
		for i := range cols {
			if bits(cols[i].lo) != bits(maps[i].lo) || bits(cols[i].hi) != bits(maps[i].hi) {
				t.Fatalf("%s range: columns [%v, %v], maps [%v, %v]", req.PreferLow[i], cols[i].lo, cols[i].hi, maps[i].lo, maps[i].hi)
			}
			if lo, hi := cols[i].lo, cols[i].hi; math.IsNaN(lo-lo) || math.IsNaN(hi-hi) {
				t.Fatalf("%s range [%v, %v] is not finite", req.PreferLow[i], lo, hi)
			}
		}
		for i, q := range view.profiles {
			if got, want := prefScore(cols, q, view.slot[i]), prefScore(maps, q, 0); bits(got) != bits(want) {
				t.Fatalf("%s %+v: preference %v from the columns, %v from the maps", q.Name, q.Properties, got, want)
			}
		}

		got, want := r.Lookup(m, req), referenceMatch(m, req, view.profiles)
		if len(got) != len(want) {
			t.Fatalf("Lookup has %d matches, the reference %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Profile != want[i].Profile || bits(got[i].Score) != bits(want[i].Score) {
				t.Fatalf("rank %d: Lookup has %s (%v), the reference %s (%v)", i,
					got[i].Profile.Name, got[i].Score, want[i].Profile.Name, want[i].Score)
			}
		}
	})
}

func bits(f float64) uint64 { return math.Float64bits(f) }
