package ontology

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddConceptValidation(t *testing.T) {
	o := New()
	if err := o.AddConcept(""); err == nil {
		t.Fatal("empty name should fail")
	}
	if err := o.AddConcept("A"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddConcept("A"); err == nil {
		t.Fatal("duplicate should fail")
	}
	if err := o.AddConcept("B", "Missing"); err == nil {
		t.Fatal("unknown parent should fail")
	}
}

func TestIsAReflexiveTransitive(t *testing.T) {
	o := Pervasive()
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"TemperatureSensor", "TemperatureSensor", true},
		{"TemperatureSensor", "SensorService", true},
		{"TemperatureSensor", "Service", true},
		{"TemperatureSensor", Root, true},
		{"SensorService", "TemperatureSensor", false},
		{"TemperatureSensor", "ComputeService", false},
		{"HeatSolver", "ComputeService", true},
	}
	for _, c := range cases {
		if got := o.IsA(c.sub, c.super); got != c.want {
			t.Errorf("IsA(%q, %q) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestDepth(t *testing.T) {
	o := Pervasive()
	if d := o.depth[Root]; d != 0 {
		t.Fatalf("depth(root) = %d", d)
	}
	if d := o.depth["Service"]; d != 1 {
		t.Fatalf("depth(Service) = %d", d)
	}
	if d := o.depth["HeatSolver"]; d != 4 {
		t.Fatalf("depth(HeatSolver) = %d, want 4", d)
	}
	if _, ok := o.depth["Nope"]; ok {
		t.Fatal("an unknown concept has a depth")
	}
}

func TestLCS(t *testing.T) {
	o := Pervasive()
	lcs, ok := o.LCS("TemperatureSensor", "SmokeSensor")
	if !ok || lcs != "SensorService" {
		t.Fatalf("LCS = %q ok=%v, want SensorService", lcs, ok)
	}
	lcs, _ = o.LCS("TemperatureSensor", "HeatSolver")
	if lcs != "Service" {
		t.Fatalf("LCS = %q, want Service", lcs)
	}
	if _, ok := o.LCS("TemperatureSensor", "Unknown"); ok {
		t.Fatal("unknown concept should report !ok")
	}
}

func TestSimilarityOrdering(t *testing.T) {
	o := Pervasive()
	if s := o.Similarity("TemperatureSensor", "TemperatureSensor"); s != 1 {
		t.Fatalf("self similarity = %v, want 1", s)
	}
	sib := o.Similarity("TemperatureSensor", "SmokeSensor")
	far := o.Similarity("TemperatureSensor", "ColorPrinter")
	if sib <= far {
		t.Fatalf("sibling sim %v should exceed cross-branch sim %v", sib, far)
	}
	if s := o.Similarity("TemperatureSensor", "Unknown"); s != 0 {
		t.Fatalf("unknown sim = %v, want 0", s)
	}
	parent := o.Similarity("TemperatureSensor", "SensorService")
	if parent <= sib {
		t.Fatalf("parent sim %v should exceed sibling sim %v", parent, sib)
	}
}

func TestSimilarityProperties(t *testing.T) {
	o := Pervasive()
	concepts := o.Concepts()
	f := func(ai, bi uint8) bool {
		a := concepts[int(ai)%len(concepts)]
		b := concepts[int(bi)%len(concepts)]
		s1, s2 := o.Similarity(a, b), o.Similarity(b, a)
		return s1 == s2 && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleInheritance(t *testing.T) {
	o := New()
	for _, step := range []struct {
		name    string
		parents []string
	}{
		{"A", nil}, {"B", nil}, {"C", []string{"A", "B"}},
	} {
		if err := o.AddConcept(step.name, step.parents...); err != nil {
			t.Fatal(err)
		}
	}
	if !o.IsA("C", "A") || !o.IsA("C", "B") {
		t.Fatal("C should inherit from both parents")
	}
}

func TestProfileValidate(t *testing.T) {
	o := Pervasive()
	p := &Profile{Name: "t1", Concept: "TemperatureSensor"}
	if err := p.Validate(o); err != nil {
		t.Fatal(err)
	}
	bad := &Profile{Name: "x", Concept: "NoSuch"}
	if err := bad.Validate(o); err == nil {
		t.Fatal("unknown concept should fail")
	}
	noName := &Profile{Concept: "Service"}
	if err := noName.Validate(o); err == nil {
		t.Fatal("empty name should fail")
	}
	badIO := &Profile{Name: "y", Concept: "Service", Inputs: []string{"Ghost"}}
	if err := badIO.Validate(o); err == nil {
		t.Fatal("unknown input concept should fail")
	}
}

func TestSatisfiesOperators(t *testing.T) {
	p := &Profile{
		Name: "printer1", Concept: "ColorPrinter",
		Properties: map[string]Value{
			"queue": Num(3),
			"cost":  Num(0.10),
			"color": Str("yes"),
			"x":     Num(10), "y": Num(0),
		},
	}
	req := Request{X: 0, Y: 0, HasLoc: true}
	cases := []struct {
		c    Constraint
		want bool
	}{
		{Constraint{"queue", OpLt, Num(5)}, true},
		{Constraint{"queue", OpLt, Num(3)}, false},
		{Constraint{"queue", OpLe, Num(3)}, true},
		{Constraint{"queue", OpGt, Num(2)}, true},
		{Constraint{"queue", OpGe, Num(4)}, false},
		{Constraint{"color", OpEq, Str("yes")}, true},
		{Constraint{"color", OpEq, Str("no")}, false},
		{Constraint{"color", OpNe, Str("no")}, true},
		{Constraint{"cost", OpLe, Num(0.15)}, true},
		{Constraint{"", OpNear, Num(15)}, true},
		{Constraint{"", OpNear, Num(5)}, false},
		// Missing property: only != passes.
		{Constraint{"ghost", OpEq, Num(1)}, false},
		{Constraint{"ghost", OpNe, Num(1)}, true},
		// Type mismatch: ordered comparison on string fails.
		{Constraint{"color", OpLt, Str("zzz")}, false},
		{Constraint{"color", OpLt, Num(1)}, false},
	}
	for _, c := range cases {
		if got := Satisfies(p, c.c, req); got != c.want {
			t.Errorf("Satisfies(%v %v %v) = %v, want %v", c.c.Property, c.c.Op, c.c.Value, got, c.want)
		}
	}
	// OpNear without a request location fails.
	if Satisfies(p, Constraint{"", OpNear, Num(100)}, Request{}) {
		t.Fatal("near without request location should fail")
	}
}

func TestValueString(t *testing.T) {
	if Num(2.5).String() != "2.5" || Str("a").String() != "a" {
		t.Fatal("value formatting broken")
	}
	if OpNear.String() != "near" || Op(99).String() == "" {
		t.Fatal("op formatting broken")
	}
}

// refAncestors is the closure computed the slow way, by walking parents on
// every call — what IsA and LCS did before the closure was stored.
func refAncestors(o *Ontology, name string) map[string]bool {
	out := map[string]bool{}
	var walk func(c string)
	walk = func(c string) {
		if out[c] {
			return
		}
		out[c] = true
		for _, p := range o.parents[c] {
			walk(p)
		}
	}
	if _, ok := o.parents[name]; ok {
		walk(name)
	}
	return out
}

func refLCS(o *Ontology, a, b string) (string, bool) {
	if !o.Has(a) || !o.Has(b) {
		return Root, false
	}
	ancA := refAncestors(o, a)
	best, bestDepth := Root, 0
	for c := range refAncestors(o, b) {
		if ancA[c] && o.depth[c] >= bestDepth {
			if o.depth[c] > bestDepth || c < best {
				best, bestDepth = c, o.depth[c]
			}
		}
	}
	return best, true
}

func refSimilarity(o *Ontology, a, b string) float64 {
	if !o.Has(a) || !o.Has(b) {
		return 0
	}
	if a == b {
		return 1
	}
	lcs, _ := refLCS(o, a, b)
	da, db, dl := o.depth[a], o.depth[b], o.depth[lcs]
	if da+db == 0 {
		return 1
	}
	return 2 * float64(dl) / float64(da+db)
}

// TestClosureEqualsRecursiveReference checks the stored ancestor closure
// against the recursive walk on a random DAG in which most concepts have
// several parents at different depths, and that reading it allocates
// nothing.
func TestClosureEqualsRecursiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := New()
	names := []string{Root}
	for i := 0; i < 80; i++ {
		name := fmt.Sprintf("c%02d", i)
		var parents []string
		for n := rng.Intn(4); n > 0; n-- { // none means Root
			parents = append(parents, names[rng.Intn(len(names))])
		}
		if err := o.AddConcept(name, parents...); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	names = append(names, "unknown")
	for _, a := range names {
		for _, b := range names {
			if got, want := o.IsA(a, b), refAncestors(o, a)[b]; got != want {
				t.Fatalf("IsA(%s, %s) = %v, reference %v", a, b, got, want)
			}
			got, ok := o.LCS(a, b)
			want, wantOK := refLCS(o, a, b)
			if got != want || ok != wantOK {
				t.Fatalf("LCS(%s, %s) = %s %v, reference %s %v", a, b, got, ok, want, wantOK)
			}
			if got, want := o.Similarity(a, b), refSimilarity(o, a, b); got != want {
				t.Fatalf("Similarity(%s, %s) = %v, reference %v", a, b, got, want)
			}
		}
	}

	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for _, b := range names[len(names)-12:] {
			if o.IsA("c79", b) {
				sink++
			}
			if c, ok := o.LCS("c78", b); ok {
				sink += float64(len(c))
			}
			sink += o.Similarity("c77", b)
		}
	})
	if allocs != 0 {
		t.Fatalf("IsA/LCS/Similarity allocate %v times per run, want 0", allocs)
	}
}
