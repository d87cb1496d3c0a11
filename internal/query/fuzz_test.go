package query

import (
	"slices"
	"testing"
)

// FuzzParse drives the parser with arbitrary inputs: it must never panic,
// and any query that parses must re-parse from its own String() with the
// same classification and the same predicates.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT temp FROM sensors WHERE sensor = 10",
		"SELECT avg(temp) FROM sensors WHERE room = '210' COST energy 0.5 EPOCH 10",
		"SELECT tempdist(temp) FROM sensors GROUP BY room",
		"select count() from sensors where temp >= 10 and room != 'r1'",
		"SELECT",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("String() output %q does not re-parse: %v", rendered, err)
		}
		if q.Kind() != q2.Kind() || q.GroupBy != q2.GroupBy || q.Epoch != q2.Epoch || !slices.Equal(q.Where, q2.Where) {
			t.Fatalf("round trip changed semantics: %q -> %q", src, rendered)
		}
	})
}
