// Package query implements the paper's sensor-query language and the Query
// Processor component: parsing
//
//	SELECT {func(), attrs} FROM sensors
//	WHERE  {selPreds}
//	COST   {cost limitation}
//	EPOCH  {duration}
//
// and classifying each query into the paper's four types — Simple,
// Aggregate, Complex, and Continuous/Windowed — which drive the decision
// maker's choice of solution model. The format follows TAG's, extended (as
// the paper says) with arbitrary functions in the SELECT clause and the
// COST clause bounding sensor energy, response time, or result accuracy.
package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Type is the paper's query taxonomy.
type Type int

// Query types. Continuous wraps an inner type (see Query.Base).
const (
	Simple Type = iota
	Aggregate
	Complex
	Continuous
)

func (t Type) String() string {
	switch t {
	case Simple:
		return "simple"
	case Aggregate:
		return "aggregate"
	case Complex:
		return "complex"
	case Continuous:
		return "continuous"
	}
	return fmt.Sprintf("type(%d)", int(t))
}

// SelectItem is one SELECT entry: a bare attribute or a function applied to
// an attribute.
type SelectItem struct {
	// Func is the function name ("avg", "tempdist", ...); empty for a
	// bare attribute.
	Func string
	// Attr is the attribute name ("temp").
	Attr string
}

func (s SelectItem) String() string {
	if s.Func == "" {
		return s.Attr
	}
	return fmt.Sprintf("%s(%s)", s.Func, s.Attr)
}

// Predicate is one WHERE condition.
type Predicate struct {
	Field string
	Op    string // = != < <= > >=
	Value string // numeric or string literal (unquoted)
}

// String renders the predicate so that it parses back to itself: a value
// that is not one bare identifier or number is quoted, with whichever quote
// it does not contain (a parsed value never holds both).
func (p Predicate) String() string {
	v := p.Value
	if !bare(v) {
		quote := "'"
		if strings.Contains(v, quote) {
			quote = `"`
		}
		v = quote + v + quote
	}
	return fmt.Sprintf("%s %s %s", p.Field, p.Op, v)
}

// bare reports whether v lexes as one identifier or one number token, by the
// lexer's rules: an identifier starts with a letter or '_' and continues with
// letters, digits and '_'; a number is digits and dots, starting with a digit
// or with a dot before a digit.
func bare(v string) bool {
	if v == "" {
		return false
	}
	c0 := rune(v[0])
	ident := unicode.IsLetter(c0) || c0 == '_'
	if !ident && !unicode.IsDigit(c0) && !(c0 == '.' && len(v) > 1 && unicode.IsDigit(rune(v[1]))) {
		return false
	}
	for i := 0; i < len(v); i++ {
		switch c := rune(v[i]); {
		case unicode.IsDigit(c):
		case ident && (unicode.IsLetter(c) || c == '_'):
		case !ident && c == '.':
		default:
			return false
		}
	}
	return true
}

// CostMetric names what the COST clause bounds.
type CostMetric int

// Cost metrics.
const (
	CostNone CostMetric = iota
	CostEnergy
	CostTime
	CostAccuracy
)

func (m CostMetric) String() string {
	switch m {
	case CostEnergy:
		return "energy"
	case CostTime:
		return "time"
	case CostAccuracy:
		return "accuracy"
	}
	return "none"
}

// Query is a parsed query.
type Query struct {
	Raw    string
	Select []SelectItem
	Where  []Predicate
	// CostMetric/CostLimit bound execution (CostNone = unbounded).
	CostMetric CostMetric
	CostLimit  float64
	// Epoch is the seconds between results for continuous queries; 0
	// for one-shot.
	Epoch float64
	// GroupBy names the attribute aggregates are partitioned by (TAG's
	// GROUP BY, which the paper's format inherits); empty for a single
	// network-wide aggregate.
	GroupBy string
}

// aggregateFuncs are the decomposable aggregates (TAG's class).
var aggregateFuncs = map[string]bool{
	"avg": true, "sum": true, "count": true, "min": true, "max": true,
}

// complexFuncs require real computation over the data — the PDE class.
var complexFuncs = map[string]bool{
	"tempdist": true, "distribution": true, "solve": true,
	"isosurface": true, "forecast": true, "minestream": true,
}

// Base classifies the query ignoring the EPOCH clause.
func (q *Query) Base() Type {
	for _, s := range q.Select {
		if complexFuncs[strings.ToLower(s.Func)] {
			return Complex
		}
	}
	for _, s := range q.Select {
		if aggregateFuncs[strings.ToLower(s.Func)] {
			return Aggregate
		}
	}
	return Simple
}

// Kind classifies the query per the paper's taxonomy: any EPOCH makes it
// Continuous; otherwise Base applies.
func (q *Query) Kind() Type {
	if q.Epoch > 0 {
		return Continuous
	}
	return q.Base()
}

// TargetSensor returns the sensor ID when the query pins one with an
// equality predicate ("sensor = 10"), or -1.
func (q *Query) TargetSensor() int {
	for _, p := range q.Where {
		if strings.EqualFold(p.Field, "sensor") && p.Op == "=" {
			var id int
			if _, err := fmt.Sscanf(p.Value, "%d", &id); err == nil {
				return id
			}
		}
	}
	return -1
}

// AggFunc returns the first aggregate function in the SELECT list, or "".
func (q *Query) AggFunc() string {
	for _, s := range q.Select {
		if aggregateFuncs[strings.ToLower(s.Func)] {
			return strings.ToLower(s.Func)
		}
	}
	return ""
}

// ComplexFunc returns the first complex function in the SELECT list, or "".
func (q *Query) ComplexFunc() string {
	for _, s := range q.Select {
		if complexFuncs[strings.ToLower(s.Func)] {
			return strings.ToLower(s.Func)
		}
	}
	return ""
}

func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(" FROM sensors")
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if q.GroupBy != "" {
		fmt.Fprintf(&b, " GROUP BY %s", q.GroupBy)
	}
	// Numbers are written without an exponent, which the lexer does not read.
	if q.CostMetric != CostNone {
		fmt.Fprintf(&b, " COST %s %s", q.CostMetric, strconv.FormatFloat(q.CostLimit, 'f', -1, 64))
	}
	if q.Epoch > 0 {
		fmt.Fprintf(&b, " EPOCH %s", strconv.FormatFloat(q.Epoch, 'f', -1, 64))
	}
	return b.String()
}
