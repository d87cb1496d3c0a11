// Package lint is pgridlint's analyzer framework: a zero-dependency
// static-analysis harness built directly on go/parser, go/ast, and
// go/types (no x/tools), matching the module's from-scratch ethos.
//
// The project's invariants are ones ordinary tests guard badly: all time
// flows through the obs.Clock seam, cross-node sends go through the
// retry layer, deputies never deliver while holding a lock, spawned
// goroutines need a stop path, and envelopes are built by the
// constructors that keep hop accounting honest. Each invariant is one
// Analyzer here; the cmd/pgridlint command runs them over every package
// and make check fails on any finding. The loader type-checks every
// package against the real standard library (load.go), so the analyzers
// resolve every name through go/types and guess none from its spelling.
// The "forbidden here" rules are rows of one table (forbid.go); the
// whole-program rules share the call graph in callgraph.go.
//
// Findings are suppressed inline with
//
//	//lint:ignore <rule>[,<rule>...] <reason>
//
// placed on the offending line or alone on the line above it. The
// reason is mandatory: a suppression without one is itself a finding
// (rule "lint-directive"), so silent opt-outs cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: where, which rule, what is wrong, and how
// to fix it.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
	// Fix is the suggested remedy, printed after the message.
	Fix string
}

// String renders the finding in the conventional file:line:col form.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	if d.Fix != "" {
		s += " (fix: " + d.Fix + ")"
	}
	return s
}

// Analyzer is one named invariant check. Per-package analyzers set Run
// and see one type-checked package at a time; whole-program analyzers
// set RunProgram instead and see every loaded package plus the
// interprocedural call graph (built lazily, once, shared between them).
type Analyzer struct {
	// Name is the rule ID used in diagnostics and //lint:ignore.
	Name string
	// Doc is a one-line description for -list output.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(pass *Pass)
	// RunProgram inspects the whole program at once. Exactly one of Run
	// and RunProgram must be set.
	RunProgram func(pass *ProgramPass)
}

// ProgramPass carries one whole-program analyzer run.
type ProgramPass struct {
	// Pkgs are every loaded package, in load order.
	Pkgs []*Package
	// Graph is the interprocedural call graph with summaries.
	Graph    *Graph
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Report records a finding at an explicit position (program analyzers
// report across packages, so they carry their own fset positions).
func (p *ProgramPass) Report(pos token.Position, message, fix string) {
	p.report(Diagnostic{
		Pos:     pos,
		Rule:    p.analyzer.Name,
		Message: message,
		Fix:     fix,
	})
}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	report   func(Diagnostic)
}

// Report records a finding anchored at node's position.
func (p *Pass) Report(node ast.Node, message, fix string) {
	p.report(Diagnostic{
		Pos:     p.Pkg.Fset.Position(node.Pos()),
		Rule:    p.analyzer.Name,
		Message: message,
		Fix:     fix,
	})
}

// unparen strips any parentheses around an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// namedOf is t's named type, through one pointer, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	rules  map[string]bool
	reason string
	pos    token.Position
	line   int  // line the directive suppresses (its own, or the next)
	used   bool // set when the directive suppressed at least one finding
}

// directivePrefix introduces a suppression comment. Both "//lint:ignore"
// and "// lint:ignore" are accepted.
const directivePrefix = "lint:ignore"

// parseDirectives extracts every //lint:ignore directive from a file,
// reporting malformed ones (missing rule or reason) as diagnostics.
func parseDirectives(fset *token.FileSet, file *ast.File, bad func(Diagnostic)) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimPrefix(text, "/*")
			text = strings.TrimSuffix(text, "*/")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
			if len(fields) < 2 {
				bad(Diagnostic{
					Pos:     pos,
					Rule:    "lint-directive",
					Message: "malformed lint:ignore: need a rule and a reason",
					Fix:     "write //lint:ignore <rule> <reason>",
				})
				continue
			}
			rules := map[string]bool{}
			for _, r := range strings.Split(fields[0], ",") {
				if r != "" {
					rules[r] = true
				}
			}
			// The directive covers its own line (the trailing form) and
			// the next (the standalone form); see suppressed.
			out = append(out, ignoreDirective{rules: rules, reason: strings.Join(fields[1:], " "), pos: pos, line: pos.Line})
		}
	}
	return out
}

// suppressed reports whether a diagnostic is covered by a directive on
// its own line or the line directly above.
func suppressed(dirs []ignoreDirective, d Diagnostic) bool {
	for i := range dirs {
		dir := &dirs[i]
		if !dir.rules[d.Rule] && !dir.rules["*"] {
			continue
		}
		if dir.line == d.Pos.Line || dir.line == d.Pos.Line-1 {
			dir.used = true
			return true
		}
	}
	return false
}

// Run applies every analyzer to every package and returns the surviving
// findings sorted by position. //lint:ignore directives are honored;
// malformed directives surface as "lint-directive" findings. Per-package
// analyzers run first, then whole-program ones (which share one lazily
// built call graph) — so a program analyzer that inspects directive
// usage (deadignore) observes the complete run.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	// Directive table for every file of every package, built once and
	// kept for the whole run: suppression marks usage on it, and the
	// deadignore rule reads the usage bits at the end.
	dirs := map[string][]ignoreDirective{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			dirs[name] = parseDirectives(pkg.Fset, f, func(d Diagnostic) {
				out = append(out, d)
			})
		}
	}
	report := func(d Diagnostic) {
		if suppressed(dirs[d.Pos.Filename], d) {
			return
		}
		out = append(out, d)
	}
	var graph *Graph // built on first program-analyzer use
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Pkg: pkg, analyzer: a, report: report}
			a.Run(pass)
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if graph == nil && a.Name != "deadignore" {
			graph = BuildGraph(pkgs)
		}
		pass := &ProgramPass{Pkgs: pkgs, Graph: graph, analyzer: a, report: report}
		a.RunProgram(pass)
	}
	reportDeadIgnores(analyzers, dirs, report)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// DeadIgnore returns the stale-suppression rule. It is a marker the Run
// driver acts on after every other analyzer has finished: a
// //lint:ignore directive that suppressed nothing, while every rule it
// names actually ran, is dead weight — the code it excused was fixed or
// deleted, and keeping the directive would silently excuse the next
// regression. Directives naming rules outside the run (a -rules subset)
// are left alone: the rule that would use them did not get a chance.
func DeadIgnore() *Analyzer {
	return &Analyzer{
		Name: "deadignore",
		Doc:  "//lint:ignore directive that no longer suppresses any finding",
		// The work happens in Run after all analyzers finish; the no-op
		// keeps the rule listable and -rules-selectable.
		RunProgram: func(pass *ProgramPass) {},
	}
}

// reportDeadIgnores emits deadignore findings when the rule is part of
// the run: every directive that suppressed nothing although each rule it
// names was active. Wildcard directives and directives mentioning
// deadignore itself are exempt — their deadness is unknowable.
func reportDeadIgnores(analyzers []*Analyzer, dirs map[string][]ignoreDirective, report func(Diagnostic)) {
	active := false
	ran := map[string]bool{"lint-directive": true}
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.Name == "deadignore" {
			active = true
		}
	}
	if !active {
		return
	}
	// Deterministic file order.
	files := make([]string, 0, len(dirs))
	for f := range dirs {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for i := range dirs[f] {
			dir := &dirs[f][i]
			if dir.used || dir.rules["*"] || dir.rules["deadignore"] {
				continue
			}
			covered := true
			var names []string
			for r := range dir.rules {
				names = append(names, r)
				if !ran[r] {
					covered = false
				}
			}
			if !covered {
				continue
			}
			sort.Strings(names)
			report(Diagnostic{
				Pos:     dir.pos,
				Rule:    "deadignore",
				Message: "stale suppression: no " + strings.Join(names, ",") + " finding left to suppress",
				Fix:     "delete the //lint:ignore directive",
			})
		}
	}
}

// agentPkgPath is the import path the platform invariants anchor on.
const agentPkgPath = "pervasivegrid/internal/agent"

// obsPkgPath is the import path that owns the wide-event schema.
const obsPkgPath = "pervasivegrid/internal/obs"

// Default returns the production analyzer set, configured for this
// module's layout: forbidTable holds where each forbid rule applies.
func Default() []*Analyzer {
	return []*Analyzer{
		Forbid("rawclock"),
		Forbid("rawsend"),
		Forbid("envhops"),
		Forbid("rawevent"),
		RawSpawn("pervasivegrid/internal/supervise", obsPkgPath),
		Forbid("rawfsync"),
		LockOrder(),
		BlockHeld(),
		HotAlloc(),
		DeadCode(),
		DeadIgnore(),
	}
}
