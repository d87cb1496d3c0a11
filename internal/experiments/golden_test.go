package experiments

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// sensingGolden lists the experiments whose every cell is deterministic and
// which together run in under a second: the sensor-network, partitioning and
// caching tables. E13 is not among them — its time-est(obs) column and its
// note are computed from a wall-clock p50 that moves from run to run — so
// it and the remaining experiments wait for ROADMAP item 4's
// volatile-column mark.
var sensingGolden = []string{"E1", "E2", "E3", "E4", "E5", "E8", "E11"}

const sensingGoldenPath = "testdata/sensing.golden"

var cellGap = regexp.MustCompile(`\s{2,}`)

// TestSensingTablesMatchGolden regenerates the tables and compares them
// with the committed rendering — the same bytes `pgridbench -only
// E1,E2,E3,E4,E5,E8,E11 -o file` writes. Run with -update after a
// deliberate change to a table.
func TestSensingTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates seven experiment tables")
	}
	runners := map[string]Runner{}
	for _, r := range All() {
		runners[r.ID] = r
	}
	tables := make([]*Table, 0, len(sensingGolden))
	var rendered bytes.Buffer
	for _, id := range sensingGolden {
		tb, err := runners[id].Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tables = append(tables, tb)
		tb.Fprint(&rendered)
	}
	if *update {
		if err := os.WriteFile(sensingGoldenPath, rendered.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(sensingGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(golden, rendered.Bytes()) {
		return
	}
	// Each rendered table ends in a blank line, so the blocks line up with
	// sensingGolden one to one.
	blocks := strings.Split(strings.TrimSuffix(string(golden), "\n\n"), "\n\n")
	if len(blocks) != len(tables) {
		t.Fatalf("golden holds %d tables, the run produced %d", len(blocks), len(tables))
	}
	for i, tb := range tables {
		diffTable(t, tb, blocks[i])
	}
	if !t.Failed() {
		t.Errorf("rendering differs from %s outside any cell", sensingGoldenPath)
	}
}

// diffTable reports every cell of tb that differs from its golden block,
// naming experiment, row and column.
func diffTable(t *testing.T, tb *Table, block string) {
	t.Helper()
	var buf bytes.Buffer
	tb.Fprint(&buf)
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n\n"), "\n")
	want := strings.Split(block, "\n")
	if len(got) != len(want) {
		t.Errorf("%s: %d lines, golden has %d", tb.ID, len(got), len(want))
		return
	}
	// Data rows follow the title, the optional claim, the header and the
	// separator.
	first := 3
	if tb.Claim != "" {
		first++
	}
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		row := i - first
		if row < 0 || row >= len(tb.Rows) {
			t.Errorf("%s line %d:\n  got  %q\n  want %q", tb.ID, i+1, got[i], want[i])
			continue
		}
		cells := cellGap.Split(strings.TrimSpace(want[i]), -1)
		if len(cells) != len(tb.Rows[row]) {
			t.Errorf("%s row %d:\n  got  %q\n  want %q", tb.ID, row, got[i], want[i])
			continue
		}
		for c, cell := range tb.Rows[row] {
			if cell != cells[c] {
				t.Errorf("%s row %d (%s) column %q: got %q, want %q",
					tb.ID, row, tb.Rows[row][0], tb.Columns[c], cell, cells[c])
			}
		}
	}
}
