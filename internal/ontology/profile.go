package ontology

import (
	"fmt"
	"math"
)

// ValueKind tags a Value.
type ValueKind int

// Value kinds.
const (
	KindString ValueKind = iota
	KindNumber
)

// Value is a typed property value: either a string or a number.
type Value struct {
	Kind ValueKind
	S    string
	N    float64
}

// Str builds a string value.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Num builds a numeric value.
func Num(n float64) Value { return Value{Kind: KindNumber, N: n} }

func (v Value) String() string {
	if v.Kind == KindNumber {
		return fmt.Sprintf("%g", v.N)
	}
	return v.S
}

// Profile is a semantic service description — the role a DAML-S service
// profile plays in the paper. It names the service's concept, its typed
// inputs/outputs, its capabilities as properties, and its requirements.
type Profile struct {
	// Name uniquely identifies the advertised service instance.
	Name string
	// Concept is the service-category concept in the ontology.
	Concept string
	// Inputs and Outputs are concept names describing the data the
	// service consumes and produces (used by the composition planner).
	Inputs  []string
	Outputs []string
	// Properties hold capability attributes: cost, queue length,
	// location coordinates ("x", "y"), "color", ...
	Properties map[string]Value
	// Requirements hold what the service needs to run (the paper's
	// "what software/hardware they need, how much is the cost to run").
	Requirements map[string]Value
	// UUID is the 128-bit-style identifier a Bluetooth-SDP matcher would
	// use. Derived from the name when empty.
	UUID string
	// Interface is the syntactic interface name a Jini-style matcher
	// would use (e.g. "Printer.printIt").
	Interface string
}

// Validate checks the profile against an ontology.
func (p *Profile) Validate(o *Ontology) error {
	if p.Name == "" {
		return fmt.Errorf("ontology: profile with empty name")
	}
	if !o.Has(p.Concept) {
		return fmt.Errorf("ontology: profile %q uses unknown concept %q", p.Name, p.Concept)
	}
	for _, c := range p.Inputs {
		if !o.Has(c) {
			return fmt.Errorf("ontology: profile %q input %q unknown", p.Name, c)
		}
	}
	for _, c := range p.Outputs {
		if !o.Has(c) {
			return fmt.Errorf("ontology: profile %q output %q unknown", p.Name, c)
		}
	}
	return nil
}

// Prop returns a property value and whether it exists.
func (p *Profile) Prop(key string) (Value, bool) {
	v, ok := p.Properties[key]
	return v, ok
}

// Op is a constraint comparison operator. The paper's complaint about
// Jini-era systems is that they "can only handle equality constraints";
// this set is the expressive superset discovery supports.
type Op int

// Constraint operators.
const (
	OpEq Op = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpNear // geographic proximity: distance((x,y), request location) <= value
)

func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpNear:
		return "near"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Constraint restricts a property of a candidate service.
type Constraint struct {
	Property string
	Op       Op
	Value    Value
}

// Request describes what a client needs: a service concept, data types,
// hard constraints, and soft preferences.
type Request struct {
	// Concept is the wanted service category.
	Concept string
	// Inputs the client can supply; Outputs the client needs.
	Inputs  []string
	Outputs []string
	// Constraints are hard: a violated constraint disqualifies the
	// candidate.
	Constraints []Constraint
	// PreferLow names numeric properties where smaller is better (print
	// queue length, cost, distance); used for ranking, not filtering.
	PreferLow []string
	// X, Y anchor OpNear constraints and distance preferences; HasLoc
	// marks them meaningful.
	X, Y   float64
	HasLoc bool
	// Max bounds the result to the best Max matches; 0 asks for every
	// match. A matcher that ranks can then select instead of sorting.
	Max int `json:",omitempty"`
}

// Satisfies evaluates one constraint against a profile (given the request
// for OpNear anchoring). Missing properties fail every constraint except
// OpNe.
func Satisfies(p *Profile, c Constraint, req Request) bool {
	if c.Op == OpNear {
		x, okx := p.Prop("x")
		y, oky := p.Prop("y")
		return c.Holds(x, y, okx && oky, &req)
	}
	v, ok := p.Prop(c.Property)
	return c.Holds(v, Value{}, ok, &req)
}

// Holds is Satisfies on property values, however they were read: v is the
// candidate's value of c.Property and ok whether it has one. For OpNear, v
// and y are its "x" and "y", and ok whether it has both.
func (c *Constraint) Holds(v, y Value, ok bool, req *Request) bool {
	if c.Op == OpNear {
		if !req.HasLoc || !ok || v.Kind != KindNumber || y.Kind != KindNumber || c.Value.Kind != KindNumber {
			return false
		}
		dx, dy := v.N-req.X, y.N-req.Y
		return math.Sqrt(dx*dx+dy*dy) <= c.Value.N
	}
	if !ok || v.Kind != c.Value.Kind {
		return c.Op == OpNe
	}
	switch c.Op {
	case OpEq:
		return v == c.Value
	case OpNe:
		return v != c.Value
	}
	if v.Kind != KindNumber {
		return false // ordered comparisons need numbers
	}
	switch c.Op {
	case OpLt:
		return v.N < c.Value.N
	case OpLe:
		return v.N <= c.Value.N
	case OpGt:
		return v.N > c.Value.N
	case OpGe:
		return v.N >= c.Value.N
	}
	return false
}
