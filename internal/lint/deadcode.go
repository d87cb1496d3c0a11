package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadCode reports top-level funcs, types and methods that no package main
// reaches: the reproduction is what its commands, examples and benchmark
// run. Roots are every declaration in a package main, every init, and every
// package-level var and const. Reachability follows resolved identifiers.
// A method is reached when its type is and reached code selects its name
// (by name, so an interface call or a method value counts), or when its
// name is one the standard library calls (stdlibMethods). The walk is a
// fixpoint: a helper that only unselected methods call is dead too. Test
// files are not loaded: code only tests call is dead. A declaration under
// //lint:ignore deadcode <reason> is a root too, keeping every method of
// the type it declares or returns, and its finding is raised (and
// suppressed) only while nothing else reaches it, so deadignore flags the
// directive once real code calls it. Consts and vars are never reported; a
// load with no package main reports nothing.
func DeadCode() *Analyzer {
	return &Analyzer{Name: "deadcode", Doc: "func, type or method that no package main reaches", RunProgram: runDeadCode}
}

// stdlibMethods are the method names the standard library calls through
// interfaces the repo implements (fmt.Stringer, error, errors.Unwrap,
// json.Marshaler, http.Handler, sort.Interface and heap.Interface,
// io.ReadWriteCloser, types.Importer): selected from the start, since no
// selector of ours names them.
var stdlibMethods = []string{"String", "Error", "Unwrap", "MarshalJSON", "UnmarshalJSON",
	"ServeHTTP", "Len", "Less", "Swap", "Push", "Pop", "Read", "Write", "Close", "Import"}

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
	selected := map[string]bool{}
	waiting := map[string][]types.Object{} // methods of reached types, by unselected name
	var mark func(obj types.Object)
	markMethod := func(m types.Object) {
		if selected[m.Name()] {
			mark(m)
		} else {
			waiting[m.Name()] = append(waiting[m.Name()], m)
		}
	}
	selectName := func(name string) {
		if !selected[name] {
			selected[name] = true
			for _, m := range waiting[name] {
				mark(m)
			}
			delete(waiting, name)
		}
	}
	mark = func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		d := decls[obj]
		if d == nil || reached[obj] {
			return
		}
		reached[obj] = true
		info := d.pkg.Info
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if isMethodSelector(info, n) {
					selectName(n.Sel.Name)
				}
			case *ast.Ident:
				if use := info.Uses[n]; use != nil {
					mark(use)
				}
			}
			return true
		})
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj {
			for i := range named.NumMethods() {
				markMethod(named.Method(i))
			}
		}
	}
	for _, name := range stdlibMethods {
		selectName(name)
	}
	for _, obj := range roots {
		mark(obj)
	}
	// Directive roots go second, so a directive on a declaration that real
	// code reaches suppresses nothing and deadignore flags it. Vars and
	// consts are roots, so never reported.
	for i, obj := range append(kept, order...) {
		d := decls[obj]
		if reached[obj] {
			continue
		}
		name := d.id.Name
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			if recv := namedOf(sig.Recv().Type()); recv != nil {
				name = recv.Obj().Name() + "." + name
			}
		}
		pass.Report(d.pkg.Fset.Position(d.id.Pos()), d.pkg.Types.Name()+"."+name+" is reached from no package main",
			"delete it, or keep a seam with //lint:ignore deadcode <reason>")
		if i < len(kept) {
			mark(obj) // the seam keeps what it calls, and its types whole
			keepWhole(obj, mark)
		}
	}
}

// isMethodSelector reports whether sel names a method, concrete or
// interface. Fields and qualified package members are not selections of
// a method name.
func isMethodSelector(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Signature().Recv() != nil
}

// keepWhole marks every method of the named type a seam declares or
// returns, whether or not reached code selects it: the seam is that type's
// whole surface. Parameter and receiver types stay judged by name.
func keepWhole(obj types.Object, mark func(types.Object)) {
	ts := []types.Type{obj.Type()}
	if sig, ok := obj.Type().(*types.Signature); ok {
		ts = ts[:0]
		for i := range sig.Results().Len() {
			ts = append(ts, sig.Results().At(i).Type())
		}
	}
	for _, t := range ts {
		if named := namedOf(t); named != nil {
			for i := range named.NumMethods() {
				mark(named.Method(i))
			}
		}
	}
}
