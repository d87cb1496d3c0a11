// Command pgridbench regenerates the reproduction suite's tables (E1–E18
// in DESIGN.md / EXPERIMENTS.md).
//
// Usage:
//
//	pgridbench                 # run every experiment
//	pgridbench -only E1,E6     # run a subset
//	pgridbench -o results.txt  # also write the tables to a file
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pervasivegrid/internal/experiments"
)

func main() {
	only := flag.String("only", "", "comma-separated experiment IDs (default: all)")
	out := flag.String("o", "", "also write results to this file")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgridbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	failed := false
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		t, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgridbench: %s: %v\n", r.ID, err)
			failed = true
			continue
		}
		t.Fprint(w)
	}
	if failed {
		os.Exit(1)
	}
}
