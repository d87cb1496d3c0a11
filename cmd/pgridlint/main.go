// Command pgridlint runs the project's invariant analyzers (see
// internal/lint and docs/static-analysis.md) over the module and
// prints findings as file:line:col: rule: message.
//
// Exit codes: 0 when clean, 1 when there are findings, 2 on a
// usage or load error — or when -time-budget is exceeded — so make
// check can distinguish "the code is wrong" from "the linter could not
// run (or got too slow)".
//
//	pgridlint                 # lint the whole module (./...)
//	pgridlint ./internal/...  # lint a subtree
//	pgridlint -rules rawclock,rawsend ./internal/agent
//	pgridlint -json           # machine-readable report (schema pgridlint/v1)
//	pgridlint -time-budget 90s  # fail (exit 2) if the run is slower
//	pgridlint -list           # describe the analyzers
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pervasivegrid/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// Exit codes.
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

// run is the testable driver: args are the command-line arguments
// (without argv[0]), dir anchors relative patterns and the module
// lookup.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgridlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	asJSON := fs.Bool("json", false, "emit a machine-readable JSON report (schema pgridlint/v1)")
	timeBudget := fs.Duration("time-budget", 0, "fail (exit 2) if the whole run exceeds this wall time; also prints the elapsed time")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: pgridlint [-list] [-rules r1,r2] [-json] [-time-budget d] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	analyzers := lint.Default()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *rules != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*rules, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			a, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "pgridlint: unknown rule %q (try -list)\n", name)
				return exitError
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	//lint:ignore rawclock the linter times its own wall clock for -time-budget; no FakeClock test drives this binary
	start := time.Now()
	loader, err := lint.NewLoader(dir)
	if err != nil {
		fmt.Fprintf(stderr, "pgridlint: %v\n", err)
		return exitError
	}
	abs, err := absDir(dir)
	if err != nil {
		fmt.Fprintf(stderr, "pgridlint: %v\n", err)
		return exitError
	}
	pkgs, err := loader.LoadPatterns(abs, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "pgridlint: %v\n", err)
		return exitError
	}

	diags := lint.Run(pkgs, analyzers)
	//lint:ignore rawclock see the time.Now above — real wall time is the point of -time-budget
	elapsed := time.Since(start)

	if *asJSON {
		rep := lint.NewJSONReport(loader.ModuleRoot, diags, len(pkgs), len(analyzers), elapsed.Milliseconds())
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "pgridlint: %v\n", err)
			return exitError
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if *timeBudget != 0 {
		fmt.Fprintf(stderr, "pgridlint: %d package(s), %d rule(s) in %s (budget %s)\n", len(pkgs), len(analyzers), elapsed.Round(time.Millisecond), *timeBudget)
		if elapsed > *timeBudget {
			fmt.Fprintf(stderr, "pgridlint: run exceeded time budget — the fixed-point engine is regressing\n")
			return exitError
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "pgridlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return exitFindings
	}
	return exitClean
}

func absDir(dir string) (string, error) {
	if dir == "" {
		dir = "."
	}
	return filepath.Abs(dir)
}
