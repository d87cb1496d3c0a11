package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// This file is the interprocedural half of pgridlint: a call graph over
// every loaded package, with per-function summaries propagated to a
// fixed point. The per-function analyzers that came first (rawclock,
// rawsend, ...) see one declaration at a time, which would catch the PR 1
// deliver-under-lock deadlock only when Lock and Deliver sit in the same
// body. The summary engine sees through helper calls: a
// function that *reaches* a blocking operation, or *eventually acquires*
// a mutex, carries that fact to every caller.
//
// Design, in the order things happen:
//
//  1. BuildGraph indexes every FuncDecl of every package by its
//     *types.Func object. The loader type-checks every package against
//     the real standard library, so a call resolves through go/types or
//     not at all: a callee outside the loaded code (a stdlib function,
//     an interface method, a function value) is no edge.
//
//  2. One AST walk per function collects its direct facts in source
//     order: lock/unlock events, calls (resolved against the index),
//     blocking operations (channel send/receive, select without a
//     default, Deliver, Wait/Sleep/Accept, net dials, socket reads and
//     writes), and allocation sites (composite literals,
//     make/new/append, fmt and friends, string concatenation, closures).
//
//  3. propagate() iterates two monotone summaries to a fixed point:
//     Blocks (does calling this function ever reach a blocking op?) with
//     a witness chain for reporting, and Acquires (the set of lock
//     classes this function can take, transitively) with one witness
//     path per class. Both are finite and grow monotonically, so the
//     round-robin iteration terminates; cycles in the call graph simply
//     converge.
//
// Lock identity is a *class*, not an instance: "x.mu" where x has named
// type agent.Platform becomes "agent.Platform.mu", so two functions
// locking the same field of the same type agree on the key even through
// different receivers. A mutex that is not a field (a local, a
// package-level var) is keyed by its rendered expression, scoped to the
// package, which keeps unrelated locals from aliasing each other.
//
// Soundness limits (documented in docs/static-analysis.md): calls
// through interfaces or function values are not resolved (no edges), so
// facts reached only that way are missed; a function literal's body is
// read only when the literal runs in place (called where it stands, or
// bound to a local that is only called), and then only for its
// allocation sites and calls; lock tracking is a straight-line
// source-order scan, not path sensitive; standard-library bodies are not
// in the graph, so their allocations are counted only for a known
// allocating set (allocStdlib) and their blocking only for the
// name-keyed blockingCalls and package net's dials and socket I/O.

// FuncNode is one function declaration in the program graph.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Name is the qualified display name: "agent.(*Platform).Send" or
	// "durable.Open".
	Name string

	// Events are the function's lock/call/block occurrences in source
	// order — the linear scan blockheld and lockorder replay.
	Events []FuncEvent
	// Allocs are the direct allocation sites in this body.
	Allocs []AllocSite
	// HotBudget is the parsed //lint:hot budget (see hotBudget); nil
	// when the function is not marked hot.
	HotBudget *int

	// Summaries, valid after propagate():

	// Blocks is true when calling this function can reach a blocking
	// operation (directly or through any depth of resolved calls).
	Blocks bool
	// BlockWitness is a human-readable chain to one blocking op, e.g.
	// "flush → send on ch (mailbox.go:94)".
	BlockWitness string
	// Acquires maps every lock class this function can take
	// (transitively) to one witness path describing how.
	Acquires map[string]string
}

// FuncEvent is one occurrence inside a function body, in source order.
type FuncEvent struct {
	Pos  token.Pos
	Kind EventKind
	// Lock/unlock: the lock class key. Block: a short description.
	Detail string
	// Deferred marks an unlock performed by a defer statement.
	Deferred bool
	// Callee is set for EventCall when the target resolved in-graph.
	Callee *FuncNode
}

// EventKind discriminates FuncEvent.
type EventKind int

const (
	EventLock EventKind = iota
	EventUnlock
	EventCall
	EventBlock
)

// AllocSite is one direct allocation in a function body.
type AllocSite struct {
	Pos  token.Pos
	Kind string // "composite literal", "make", "fmt.Sprintf", ...
}

// Graph is the whole-program call graph plus summaries.
type Graph struct {
	// Funcs holds every indexed function in deterministic order
	// (package path, then file, then source position).
	Funcs []*FuncNode

	byObj map[*types.Func]*FuncNode
}

// blockingCalls are method/function names that block by convention in
// this codebase: envelope delivery can park on a full mailbox, Wait and
// Sleep are waits by contract, Accept parks on the listener. Lock/RLock
// are deliberately absent — nested critical sections are lockorder's
// business, and flagging every one as "blocking" would drown blockheld.
var blockingCalls = map[string]string{
	"Deliver": "Deliver (can park on a full mailbox)",
	"deliver": "deliver (can park on a full mailbox)",
	"Wait":    "Wait",
	"Sleep":   "Sleep",
	"Accept":  "Accept",
}

// blockingNet names the functions and methods of package net that block on
// the network: dials, listens, and socket reads and writes (net.Conn's
// Read and Write, and every concrete connection's).
var blockingNet = map[string]bool{"Dial": true, "DialTimeout": true, "Listen": true, "Read": true, "Write": true}

// allocStdlib maps stdlib packages, whose bodies are not in the graph,
// to the call names that allocate. "*" means every exported call in the
// package does.
var allocStdlib = map[string]map[string]bool{
	"fmt":           {"*": true},
	"encoding/json": {"Marshal": true, "MarshalIndent": true, "Unmarshal": true, "NewEncoder": true, "NewDecoder": true},
	"strconv":       {"Itoa": true, "FormatInt": true, "FormatUint": true, "FormatFloat": true, "Quote": true, "AppendInt": false},
	"strings":       {"Join": true, "Repeat": true, "Split": true, "Fields": true, "ToUpper": true, "ToLower": true, "ReplaceAll": true, "TrimSpace": false},
	"sort":          {"Strings": false},
}

// BuildGraph indexes every function declaration across pkgs, collects
// direct facts, and propagates summaries to a fixed point.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{byObj: map[*types.Func]*FuncNode{}}
	// Pass 1: index declarations so calls can resolve forward.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &FuncNode{
					Pkg:       pkg,
					Decl:      fd,
					Name:      qualifiedName(pkg, fd),
					HotBudget: hotBudget(fd),
					Acquires:  map[string]string{},
				}
				g.byObj[pkg.Info.Defs[fd.Name].(*types.Func)] = fn
				g.Funcs = append(g.Funcs, fn)
			}
		}
	}
	// Pass 2: per-function direct facts.
	for _, fn := range g.Funcs {
		g.collectFacts(fn)
	}
	g.propagate()
	return g
}

// qualifiedName renders "pkg.(*Recv).Method" / "pkg.Func" for reports.
func qualifiedName(pkg *Package, fd *ast.FuncDecl) string {
	short := pkg.Path
	if i := strings.LastIndex(short, "/"); i >= 0 {
		short = short[i+1:]
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return short + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	return short + ".(" + typeExprString(recv) + ")." + fd.Name.Name
}

// typeExprString renders a receiver type expression.
func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr:
		return typeExprString(t.X)
	case *ast.IndexListExpr:
		return typeExprString(t.X)
	default:
		return "?"
	}
}

// hotBudget scans a function's doc comment for //lint:hot and returns
// its allocation budget (default 0), or nil when the function is not
// marked hot. The directive form is:
//
//	//lint:hot budget=<n>
//
// marking the function as a hot-path root for the hotalloc analyzer.
func hotBudget(fd *ast.FuncDecl) *int {
	if fd.Doc == nil {
		return nil
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), "lint:hot")
		if !ok {
			continue
		}
		budget := 0
		for _, f := range strings.Fields(rest) {
			if v, found := strings.CutPrefix(f, "budget="); found {
				if n, err := strconv.Atoi(v); err == nil {
					budget = n
				}
			}
		}
		return &budget
	}
	return nil
}

// collectFacts walks one body gathering events and allocation sites.
func (g *Graph) collectFacts(fn *FuncNode) {
	pkg := fn.Pkg
	deferred := map[*ast.CallExpr]bool{}
	// A go statement's call runs in a fresh goroutine: it cannot block
	// the spawner, so it contributes no block/call event (rawspawn owns
	// goroutine discipline). Its arguments still evaluate here and keep
	// their allocation sites.
	goCalls := map[*ast.CallExpr]bool{}
	// Channel ops that are a select's comm clauses are part of the
	// select (one event, blocking only without a default), not free-
	// standing blocking ops.
	selectComm := map[ast.Node]bool{}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			deferred[node.Call] = true
		case *ast.GoStmt:
			goCalls[node.Call] = true
		case *ast.SelectStmt:
			for _, clause := range node.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				switch comm := cc.Comm.(type) {
				case *ast.SendStmt:
					selectComm[comm] = true
				case *ast.ExprStmt:
					selectComm[unparen(comm.X)] = true
				case *ast.AssignStmt:
					if len(comm.Rhs) == 1 {
						selectComm[unparen(comm.Rhs[0])] = true
					}
				}
			}
		}
		return true
	})
	inline := inlineLits(pkg.Info, fn.Decl.Body, deferred, goCalls)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			if !selectComm[node] {
				fn.Events = append(fn.Events, FuncEvent{Pos: node.Pos(), Kind: EventBlock, Detail: "channel send"})
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW && !selectComm[node] {
				fn.Events = append(fn.Events, FuncEvent{Pos: node.Pos(), Kind: EventBlock, Detail: "channel receive"})
			}
		case *ast.SelectStmt:
			if !selectHasDefault(node) {
				fn.Events = append(fn.Events, FuncEvent{Pos: node.Pos(), Kind: EventBlock, Detail: "select without default"})
			}
		case *ast.CompositeLit:
			fn.Allocs = append(fn.Allocs, AllocSite{Pos: node.Pos(), Kind: "composite literal"})
		case *ast.FuncLit:
			if inline[node] {
				return true
			}
			fn.Allocs = append(fn.Allocs, AllocSite{Pos: node.Pos(), Kind: "closure"})
			// Facts inside the literal belong to whoever runs it, which
			// the engine cannot see; skip the body (soundness limit).
			return false
		case *ast.BinaryExpr:
			if node.Op == token.ADD && isString(pkg.Info.TypeOf(node.X)) {
				fn.Allocs = append(fn.Allocs, AllocSite{Pos: node.Pos(), Kind: "string concatenation"})
			}
		case *ast.CallExpr:
			if !goCalls[node] {
				g.collectCall(fn, node, deferred[node])
			}
		}
		return true
	})
	if len(inline) > 0 {
		// An inlined body lends the function its allocation sites and
		// calls only: its locks and blocking operations run at its call,
		// not where it is written, so they stay unseen (soundness limit).
		kept := fn.Events[:0]
		for _, ev := range fn.Events {
			if ev.Kind == EventCall || !insideAny(inline, ev.Pos) {
				kept = append(kept, ev)
			}
		}
		fn.Events = kept
	}
	sort.SliceStable(fn.Events, func(i, j int) bool { return fn.Events[i].Pos < fn.Events[j].Pos })
}

// inlineLits returns the function literals in body that run only as part
// of the function itself: one called where it stands, or one bound with
// := to a local that the function only ever calls. A literal run by a go
// or defer statement, or one that escapes as a value, is not inline: it
// stays a closure allocation with an unseen body.
func inlineLits(info *types.Info, body *ast.BlockStmt, deferred, goCalls map[*ast.CallExpr]bool) map[*ast.FuncLit]bool {
	inline := map[*ast.FuncLit]bool{}
	bound := map[types.Object]*ast.FuncLit{}
	called := map[*ast.Ident]bool{} // a plain call's callee
	escaped := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if deferred[node] || goCalls[node] {
				break
			}
			switch callee := unparen(node.Fun).(type) {
			case *ast.FuncLit:
				inline[callee] = true
			case *ast.Ident:
				called[callee] = true
			}
		case *ast.AssignStmt:
			if node.Tok != token.DEFINE || len(node.Lhs) != len(node.Rhs) {
				break
			}
			for i, lhs := range node.Lhs {
				lit, isLit := unparen(node.Rhs[i]).(*ast.FuncLit)
				if id, ok := lhs.(*ast.Ident); ok && isLit && info.Defs[id] != nil {
					bound[info.Defs[id]] = lit
				}
			}
		case *ast.Ident:
			// A local's uses follow its declaration, so bound is complete
			// for every use seen here.
			if lit := bound[info.Uses[node]]; lit != nil && !called[node] {
				escaped[lit] = true
			}
		}
		return true
	})
	for _, lit := range bound {
		if !escaped[lit] {
			inline[lit] = true
		}
	}
	return inline
}

// insideAny reports whether pos lies within one of the literals.
func insideAny(lits map[*ast.FuncLit]bool, pos token.Pos) bool {
	for lit := range lits {
		if lit.Pos() <= pos && pos < lit.End() {
			return true
		}
	}
	return false
}

// collectCall classifies one call expression: lock event, blocking op,
// allocation, resolved in-graph call — possibly several at once.
func (g *Graph) collectCall(fn *FuncNode, call *ast.CallExpr, isDeferred bool) {
	pkg := fn.Pkg
	fun := unparen(call.Fun)
	// An explicit instantiation, f[T](...), calls f.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	switch target := fun.(type) {
	case *ast.Ident:
		switch target.Name {
		case "make", "new", "append":
			if _, ok := pkg.Info.Uses[target].(*types.Builtin); ok {
				fn.Allocs = append(fn.Allocs, AllocSite{Pos: call.Pos(), Kind: target.Name})
			}
			return
		}
		if callee := g.resolve(pkg, target); callee != nil {
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventCall, Callee: callee})
		}
	case *ast.SelectorExpr:
		name := target.Sel.Name
		if f, ok := pkg.Info.Uses[target.Sel].(*types.Func); ok && f.Pkg() != nil && f.Pkg().Path() == "net" && blockingNet[name] {
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventBlock, Detail: "net." + name})
			return
		}
		// A package member: the qualifier is an import.
		if id, ok := target.X.(*ast.Ident); ok {
			if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
				path := pn.Imported().Path()
				if names := allocStdlib[path]; names["*"] || names[name] {
					fn.Allocs = append(fn.Allocs, AllocSite{Pos: call.Pos(), Kind: pn.Imported().Name() + "." + name})
				}
				if callee := g.resolve(pkg, target.Sel); callee != nil {
					fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventCall, Callee: callee})
				}
				return
			}
		}
		switch name {
		case "Lock", "RLock":
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventLock, Detail: lockClass(pkg, target.X)})
			return
		case "Unlock", "RUnlock":
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventUnlock, Detail: lockClass(pkg, target.X), Deferred: isDeferred})
			return
		}
		if desc, ok := blockingCalls[name]; ok {
			// Blocking-by-convention calls are terminal: the name is the
			// fact, and a call edge on top would double-report the site.
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventBlock, Detail: desc})
			return
		}
		if callee := g.resolve(pkg, target.Sel); callee != nil {
			fn.Events = append(fn.Events, FuncEvent{Pos: call.Pos(), Kind: EventCall, Callee: callee})
		}
	}
}

// resolve maps a called identifier to its FuncNode: nil for anything
// but a function declared in the loaded code. A method of an
// instantiated generic type resolves to its declaration (Origin).
func (g *Graph) resolve(pkg *Package, id *ast.Ident) *FuncNode {
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	if fn == nil {
		return nil
	}
	return g.byObj[fn.Origin()]
}

// exprKey renders a selector chain ("d.mu", "l.platform.mu") for use as
// the lock key of a mutex that is not a field; unrenderable expressions
// share one bucket.
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	default:
		return "<expr>"
	}
}

// lockClass names the lock so different holders of the same field
// agree: "agent.Platform.mu" when the mutex is a field of a named type,
// otherwise the rendered expression scoped to the package.
func lockClass(pkg *Package, mutexExpr ast.Expr) string {
	if sel, ok := unparen(mutexExpr).(*ast.SelectorExpr); ok {
		if named := namedOf(pkg.Info.TypeOf(sel.X)); named != nil && named.Obj().Pkg() != nil {
			path := named.Obj().Pkg().Path()
			return path[strings.LastIndex(path, "/")+1:] + "." + named.Obj().Name() + "." + sel.Sel.Name
		}
	}
	return pkg.Path + "\x00" + exprKey(mutexExpr)
}

// LockClassString renders a class key for humans (strips the package
// scoping of unresolved keys).
func LockClassString(class string) string {
	if i := strings.IndexByte(class, 0); i >= 0 {
		path := class[:i]
		short := path[strings.LastIndex(path, "/")+1:]
		return short + ":" + class[i+1:]
	}
	return class
}

// propagate iterates the Blocks and Acquires summaries to a fixed
// point. Both domains are finite and the transfer functions monotone, so
// repeated sweeps terminate; the sweep order follows g.Funcs, which is
// deterministic.
func (g *Graph) propagate() {
	// Seed direct facts.
	for _, fn := range g.Funcs {
		for _, ev := range fn.Events {
			switch ev.Kind {
			case EventBlock:
				if !fn.Blocks {
					fn.Blocks = true
					fn.BlockWitness = ev.Detail + " (" + shortPos(fn.Pkg.Fset, ev.Pos) + ")"
				}
			case EventLock:
				if _, ok := fn.Acquires[ev.Detail]; !ok {
					fn.Acquires[ev.Detail] = fn.Name + " (" + shortPos(fn.Pkg.Fset, ev.Pos) + ")"
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range g.Funcs {
			for _, ev := range fn.Events {
				if ev.Kind != EventCall || ev.Callee == nil {
					continue
				}
				callee := ev.Callee
				if callee.Blocks && !fn.Blocks {
					fn.Blocks = true
					fn.BlockWitness = callee.Name + " → " + callee.BlockWitness
					changed = true
				}
				for class, via := range callee.Acquires {
					if _, ok := fn.Acquires[class]; !ok {
						fn.Acquires[class] = fn.Name + " → " + via
						changed = true
					}
				}
			}
		}
	}
}

// selectHasDefault reports whether a select statement has a default
// clause (a non-blocking poll).
func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isString reports whether t is a string type.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// shortPos renders "file.go:12" for witness chains.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// ReachableAllocs walks the resolved call graph from root collecting
// every allocation site reachable through it, including the root's own.
// Each function is visited once; the result is sorted by position for
// deterministic reports.
func (g *Graph) ReachableAllocs(root *FuncNode) []AllocSiteIn {
	var out []AllocSiteIn
	seen := map[*FuncNode]bool{}
	var visit func(fn *FuncNode)
	visit = func(fn *FuncNode) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		for _, a := range fn.Allocs {
			out = append(out, AllocSiteIn{Fn: fn, Site: a})
		}
		for _, ev := range fn.Events {
			if ev.Kind == EventCall && ev.Callee != nil {
				visit(ev.Callee)
			}
		}
	}
	visit(root)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fn.Name != out[j].Fn.Name {
			return out[i].Fn.Name < out[j].Fn.Name
		}
		return out[i].Site.Pos < out[j].Site.Pos
	})
	return out
}

// AllocSiteIn is an allocation site paired with its owning function.
type AllocSiteIn struct {
	Fn   *FuncNode
	Site AllocSite
}
