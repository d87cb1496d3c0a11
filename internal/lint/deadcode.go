package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports top-level funcs and types that no package main
// reaches: the reproduction is what its commands, examples and benchmark
// run. Roots are every declaration in a package main, every init, and every
// package-level var and const. Reachability follows resolved identifiers,
// and a reached type reaches all its methods, so interface satisfaction
// needs no list. Test files are not loaded: code only tests call is dead.
// A declaration under //lint:ignore deadcode <reason> is a root too, and
// its finding is raised (and suppressed) only while nothing else reaches
// it, so deadignore flags the directive once real code calls it. Consts
// and vars are never reported; a load with no package main reports nothing.
func DeadCode() *Analyzer {
	return &Analyzer{Name: "deadcode", Doc: "func or type that no package main reaches", RunProgram: runDeadCode}
}

// deadDecl is one top-level declaration.
type deadDecl struct {
	pkg  *Package
	node ast.Node   // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	id   *ast.Ident // anchors the finding
}

func runDeadCode(pass *ProgramPass) {
	decls := map[types.Object]*deadDecl{}
	var order, roots, kept []types.Object
	hasMain := false
	for _, pkg := range pass.Pkgs {
		isMain := pkg.Files[0].Name.Name == "main"
		hasMain = hasMain || isMain
		// Lines right below a deadcode directive, where it suppresses.
		under := map[token.Position]bool{}
		add := func(id *ast.Ident, node ast.Node, root bool) {
			if obj := pkg.Info.Defs[id]; obj != nil {
				decls[obj] = &deadDecl{pkg, node, id}
				order = append(order, obj)
				if p := pkg.Fset.Position(id.Pos()); root || isMain {
					roots = append(roots, obj)
				} else if under[token.Position{Filename: p.Filename, Line: p.Line}] {
					kept = append(kept, obj)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, dir := range parseDirectives(pkg.Fset, f, func(Diagnostic) {}) {
				if dir.rules["deadcode"] {
					under[token.Position{Filename: dir.pos.Filename, Line: dir.line + 1}] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					add(n.Name, n, n.Recv == nil && n.Name.Name == "init")
				case *ast.TypeSpec:
					add(n.Name, n, false)
				case *ast.ValueSpec:
					for _, id := range n.Names {
						add(id, n, true)
					}
				default:
					return true
				}
				return false // top level only
			})
		}
	}
	if !hasMain {
		return
	}
	reached := map[types.Object]bool{}
	var mark func(obj types.Object)
	mark = func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		d := decls[obj]
		if d == nil || reached[obj] {
			return
		}
		reached[obj] = true
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if use := d.pkg.Info.Uses[id]; use != nil {
					mark(use)
				} else if _, def := d.pkg.Info.Defs[id]; !def {
					// Unresolved, as the argument of a stubbed stdlib
					// generic (atomic.Pointer[T]) is: try the package scope.
					mark(d.pkg.Types.Scope().Lookup(id.Name))
				}
			}
			return true
		})
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj {
			for i := range named.NumMethods() {
				mark(named.Method(i))
			}
		}
	}
	for _, obj := range roots {
		mark(obj)
	}
	// Directive roots go second, so a directive on a declaration that real
	// code reaches suppresses nothing and deadignore flags it. Vars and
	// consts are roots, so never reported.
	for i, obj := range append(kept, order...) {
		if d := decls[obj]; !reached[obj] {
			pass.Report(d.pkg.Fset.Position(d.id.Pos()), d.pkg.Types.Name()+"."+d.id.Name+" is reached from no package main",
				"delete it, or keep a seam with //lint:ignore deadcode <reason>")
			if i < len(kept) {
				mark(obj) // the seam keeps what it calls
			}
		}
	}
}
