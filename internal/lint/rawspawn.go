package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// stopNamePattern matches identifiers that conventionally carry a stop
// signal: done/quit/stop channels, contexts, cancel funcs, wait groups.
var stopNamePattern = regexp.MustCompile(`(?i)^(done|quit|stop|stopped|exit|closing|closed|cancel|ctx|wg)$`)

// RawSpawn polices `go` statements that launch a long-running body — one
// containing an unbounded `for {}` loop — in a single walk, for two
// defects:
//
// No stop signal. A function literal that loops forever and references
// no done/quit/stop channel, no context and no WaitGroup has no shutdown
// path: it outlives its owner, pins its captures, and turns every test of
// its package into a goroutine leak (see internal/leak, the runtime half
// of this check). Named-function goroutines are not checked — their stop
// path lives in the callee.
//
// No supervision fence. A literal, or a same-package function or method,
// that loops forever and is launched with a raw `go` dies silently when
// it panics: no recovery, no restart, no metric, and its owner only
// notices when the subsystem goes quiet. Long-running loops must be
// spawned through supervise.Spawn (one-shot panic fence) or
// Supervisor.Spawn (restart policy). The exempt packages — supervise
// itself, and obs, which supervise depends on — skip this half only:
// someone has to own the raw `go`, but it still needs a way to stop.
//
// Run-to-completion goroutines (no unbounded loop) are fine raw: they
// end, and a panic in them surfaces through whatever result path they
// already have. A callee in another package is not checked — its
// package is responsible for its own spawn discipline.
func RawSpawn(exempt ...string) *Analyzer {
	ex := map[string]bool{}
	for _, p := range exempt {
		ex[p] = true
	}
	return &Analyzer{
		Name: "rawspawn",
		Doc:  "long-running goroutine (unbounded loop) with no stop signal, or launched with raw go instead of supervise.Spawn",
		Run: func(pass *Pass) {
			looping := loopingFuncs(pass.Pkg)
			for _, file := range pass.Pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					g, ok := n.(*ast.GoStmt)
					if !ok {
						return true
					}
					if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok &&
						hasUnboundedLoop(lit.Body) && !referencesStopSignal(lit.Body) {
						pass.Report(g,
							"goroutine loops forever with no stop signal in scope",
							"select on a done/quit channel (or ctx.Done()) inside the loop, or bound the loop")
					}
					if !ex[pass.Pkg.Path] && spawnedBodyLoops(pass.Pkg.Info, g, looping) {
						pass.Report(g,
							"long-running goroutine spawned raw: a panic here dies silently",
							"launch it with supervise.Spawn(name, fn) (or a Supervisor) so panics are fenced and counted")
					}
					return true
				})
			}
		},
	}
}

// hasUnboundedLoop reports whether body contains a `for {}` (no
// condition) loop. Conditioned and three-clause loops terminate by
// construction or are the author's explicit responsibility; range loops
// end when their operand does (a closed channel, a finite collection).
func hasUnboundedLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok && f.Cond == nil && f.Init == nil && f.Post == nil {
			found = true
			return false
		}
		return !found
	})
	return found
}

// referencesStopSignal reports whether the body mentions any
// conventionally named stop mechanism, either as a bare identifier
// (done, ctx, wg) or as the field of a receiver (l.done, pr.stop).
func referencesStopSignal(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if stopNamePattern.MatchString(x.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if stopNamePattern.MatchString(x.Sel.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopingFuncs indexes the package's functions and methods whose bodies
// contain an unbounded loop.
func loopingFuncs(pkg *Package) map[*types.Func]bool {
	looping := map[*types.Func]bool{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hasUnboundedLoop(fd.Body) {
				looping[pkg.Info.Defs[fd.Name].(*types.Func)] = true
			}
		}
	}
	return looping
}

// spawnedBodyLoops reports whether the go statement's callee has an
// unbounded loop: directly for a literal, through the index for a named
// function or method (one of another package is not in it).
func spawnedBodyLoops(info *types.Info, g *ast.GoStmt, looping map[*types.Func]bool) bool {
	var id *ast.Ident
	switch fun := unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		return hasUnboundedLoop(fun.Body)
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, _ := info.Uses[id].(*types.Func)
	return looping[fn]
}
