package query

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// The paper's four example queries.
func TestPaperExamples(t *testing.T) {
	cases := []struct {
		src  string
		kind Type
	}{
		// "Return temperature at Sensor # 10"
		{"SELECT temp FROM sensors WHERE sensor = 10", Simple},
		// "Return Average Temperature in room # 210"
		{"SELECT avg(temp) FROM sensors WHERE room = '210'", Aggregate},
		// "Find Temperature Distribution in room #210"
		{"SELECT tempdist(temp) FROM sensors WHERE room = '210'", Complex},
		// "Return temperature at Sensor #10 every 10 seconds"
		{"SELECT temp FROM sensors WHERE sensor = 10 EPOCH DURATION 10", Continuous},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if got := q.Kind(); got != c.kind {
			t.Errorf("Kind(%q) = %v, want %v", c.src, got, c.kind)
		}
	}
}

func TestParseFull(t *testing.T) {
	q, err := Parse("SELECT avg(temp), max(temp) FROM sensors WHERE room = '210' AND temp > 30 COST energy 0.5 EPOCH 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 2 || q.Select[0].Func != "avg" || q.Select[1].Func != "max" {
		t.Fatalf("select = %+v", q.Select)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where = %+v", q.Where)
	}
	if q.Where[0].Field != "room" || q.Where[0].Value != "210" {
		t.Fatalf("where[0] = %+v", q.Where[0])
	}
	if q.Where[1].Op != ">" || q.Where[1].Value != "30" {
		t.Fatalf("where[1] = %+v", q.Where[1])
	}
	if q.CostMetric != CostEnergy || q.CostLimit != 0.5 {
		t.Fatalf("cost = %v %v", q.CostMetric, q.CostLimit)
	}
	if q.Epoch != 10 {
		t.Fatalf("epoch = %v", q.Epoch)
	}
	if q.Kind() != Continuous || q.Base() != Aggregate {
		t.Fatalf("kind=%v base=%v", q.Kind(), q.Base())
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	q, err := Parse("select AVG(temp) from sensors where ROOM = 210 epoch 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.AggFunc() != "avg" || len(q.Where) != 1 || q.Where[0].Field != "ROOM" || q.Where[0].Value != "210" || q.Epoch != 5 {
		t.Fatalf("parsed = %+v", q)
	}
}

func TestAccessors(t *testing.T) {
	q, err := Parse("SELECT temp FROM sensors WHERE sensor = 42")
	if err != nil {
		t.Fatal(err)
	}
	if q.TargetSensor() != 42 {
		t.Fatalf("target = %d", q.TargetSensor())
	}
	if q.AggFunc() != "" || q.ComplexFunc() != "" {
		t.Fatal("empty accessors should return zero values")
	}
	q2, _ := Parse("SELECT tempdist(temp) FROM sensors")
	if q2.ComplexFunc() != "tempdist" || q2.TargetSensor() != -1 {
		t.Fatalf("complex accessors: %q %d", q2.ComplexFunc(), q2.TargetSensor())
	}
}

func TestCostMetrics(t *testing.T) {
	for _, m := range []struct {
		src  string
		want CostMetric
	}{
		{"SELECT temp FROM sensors COST energy 1", CostEnergy},
		{"SELECT temp FROM sensors COST time 2.5", CostTime},
		{"SELECT temp FROM sensors COST accuracy 0.9", CostAccuracy},
	} {
		q, err := Parse(m.src)
		if err != nil {
			t.Fatal(err)
		}
		if q.CostMetric != m.want {
			t.Fatalf("%q metric = %v", m.src, q.CostMetric)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM sensors",
		"SELECT temp",
		"SELECT temp FROM tables",
		"SELECT temp FROM sensors WHERE",
		"SELECT temp FROM sensors WHERE sensor",
		"SELECT temp FROM sensors WHERE sensor = ",
		"SELECT temp FROM sensors WHERE sensor ~ 10",
		"SELECT avg(temp FROM sensors",
		"SELECT temp FROM sensors COST joules 5",
		"SELECT temp FROM sensors COST energy x",
		"SELECT temp FROM sensors EPOCH -5",
		"SELECT temp FROM sensors EPOCH",
		"SELECT temp FROM sensors BOGUS",
		"SELECT temp FROM sensors WHERE room = 'unterminated",
		"SELECT temp FROM sensors WHERE x = @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT temp FROM sensors WHERE sensor = 10",
		"SELECT avg(temp) FROM sensors WHERE room = '210' COST time 5 EPOCH 10",
		"SELECT tempdist(temp), count(temp) FROM sensors WHERE temp >= 100",
		// String values that are not one bare word, and numbers %g would
		// write with an exponent.
		"SELECT avg(temp) FROM sensors WHERE room = ''",
		`SELECT temp FROM sensors WHERE room = 'the lab' AND tag = "it's"`,
		"SELECT avg(temp) FROM sensors COST energy 1000000 EPOCH 0.000001",
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		q2, err := Parse(q1.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", q1.String(), err)
		}
		if q1.Kind() != q2.Kind() || !slices.Equal(q1.Select, q2.Select) || !slices.Equal(q1.Where, q2.Where) ||
			q1.CostLimit != q2.CostLimit || q1.Epoch != q2.Epoch {
			t.Fatalf("round trip changed query: %q -> %q", src, q2.String())
		}
	}
}

func TestClassificationPrecedence(t *testing.T) {
	// Complex beats aggregate when both appear.
	q, err := Parse("SELECT avg(temp), tempdist(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if q.Base() != Complex {
		t.Fatalf("base = %v, want complex", q.Base())
	}
	// count() with no attribute is legal.
	q2, err := Parse("SELECT count() FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Base() != Aggregate {
		t.Fatalf("count() base = %v", q2.Base())
	}
}

// Property: the parser never panics, and on success Kind() is total.
func TestPropertyParserRobust(t *testing.T) {
	f := func(s string) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("Parse(%q) panicked: %v", s, r)
			}
		}()
		q, err := Parse(s)
		if err == nil {
			_ = q.Kind()
			_ = q.String()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// And a directed fuzz over fragments.
	frags := []string{"SELECT", "temp", "FROM", "sensors", "WHERE", "=", "(", ")", ",", "avg", "10", "'a'", "COST", "energy", "EPOCH"}
	for i := 0; i < 500; i++ {
		var b strings.Builder
		for j := 0; j < (i%7)+1; j++ {
			b.WriteString(frags[(i*31+j*7)%len(frags)])
			b.WriteByte(' ')
		}
		f(b.String())
	}
}

func TestParseGroupBy(t *testing.T) {
	q, err := Parse("SELECT avg(temp) FROM sensors GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy != "room" {
		t.Fatalf("group by = %q", q.GroupBy)
	}
	if q.Kind() != Aggregate {
		t.Fatalf("kind = %v", q.Kind())
	}
	// Round trip.
	q2, err := Parse(q.String())
	if err != nil {
		t.Fatal(err)
	}
	if q2.GroupBy != "room" {
		t.Fatal("group by lost in round trip")
	}
	// With other clauses.
	q3, err := Parse("SELECT max(temp) FROM sensors WHERE temp > 30 GROUP BY room EPOCH 10")
	if err != nil {
		t.Fatal(err)
	}
	if q3.GroupBy != "room" || q3.Epoch != 10 {
		t.Fatalf("parsed = %+v", q3)
	}
	// Errors.
	for _, bad := range []string{
		"SELECT avg(temp) FROM sensors GROUP room",
		"SELECT avg(temp) FROM sensors GROUP BY",
		"SELECT avg(temp) FROM sensors GROUP BY 42",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}
