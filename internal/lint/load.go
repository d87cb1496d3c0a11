package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, parsed, and (best-effort) type-checked package.
type Package struct {
	// Path is the import path ("pervasivegrid/internal/agent").
	Path string
	// Dir is the absolute directory the sources came from.
	Dir string
	// Fset maps positions for every file of every package this loader
	// touched (shared so cross-package positions stay coherent).
	Fset *token.FileSet
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Types is the type-checked package object. In-module imports are
	// checked from source; imports outside the module are stubbed, so
	// Types may carry errors for expressions that touch them — the
	// analyzers only rely on identifier and named-type resolution,
	// which survives stubbing.
	Types *types.Package
	// Info holds the resolution maps the analyzers consult.
	Info *types.Info
	// TypeErrors collects what the checker complained about (expected
	// and non-fatal when external imports are stubbed).
	TypeErrors []error
}

// Loader loads packages of one module from source. It is deliberately
// minimal: it understands a single module rooted at a go.mod, resolves
// in-module imports by type-checking them from source (recursively,
// with memoization), and stubs every import outside the module with an
// empty package object. That is exactly enough type information for
// pgridlint's analyzers — qualifier identity (is this ident package
// "time"?) and named-type identity (is this receiver *agent.Platform?)
// — without dragging in export data, cgo, or x/tools.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's declared import path.
	ModulePath string

	fset    *token.FileSet
	pkgs    map[string]*Package // memo by import path
	loading map[string]bool     // cycle guard
	stubs   map[string]*types.Package
}

// NewLoader finds the enclosing module by walking up from dir to the
// nearest go.mod and returns a loader rooted there.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		stubs:      map[string]*types.Package{},
	}, nil
}

// modulePath extracts the module declaration from a go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: %s has no module directive", gomod)
}

// LoadPatterns loads the packages named by patterns, resolved relative
// to dir ("" = the module root). A pattern is a directory, or a
// directory suffixed with "/..." for a recursive walk ("./..." walks
// everything). testdata, vendor, and dot-directories are skipped during
// walks, mirroring the go tool.
func (l *Loader) LoadPatterns(dir string, patterns ...string) ([]*Package, error) {
	if dir == "" {
		dir = l.ModuleRoot
	}
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if abs, err := filepath.Abs(d); err == nil && !seen[abs] {
			seen[abs] = true
			dirs = append(dirs, abs)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := filepath.Join(dir, rest)
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: walk %s: %w", pat, err)
			}
			continue
		}
		p := pat
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		if !hasGoFiles(p) {
			return nil, fmt.Errorf("lint: %s contains no Go files", pat)
		}
		add(p)
	}
	sort.Strings(dirs)
	out := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.LoadDir(d)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// hasGoFiles reports whether dir directly contains at least one
// non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the package in dir (non-test files
// only), memoized by import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", abs, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %s contains no Go files", abs)
	}

	pkg := &Package{
		Path: importPath,
		Dir:  abs,
		Fset: l.fset,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer:    importerFunc(l.importPkg),
		FakeImportC: true,
		Error:       func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		// Stubbed external imports make many expressions untypeable;
		// keep checking past them.
		DisableUnusedImportCheck: true,
	}
	// Check never returns a useful error here beyond what the Error
	// callback already captured; stubbed imports guarantee some noise.
	tpkg, _ := conf.Check(importPath, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	pkg.Files = files
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", abs, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// importPkg resolves one import during type checking: unsafe is the
// real unsafe, in-module paths are loaded from source, and everything
// else (stdlib, would-be third-party) becomes an empty stub package.
// Stubbing keeps the loader hermetic — no export data, no cgo, no
// network — at the cost of type errors on expressions that reach into
// stubbed packages, which the analyzers are built to tolerate.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(path, l.ModulePath)
		rel = strings.TrimPrefix(rel, "/")
		pkg, err := l.LoadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if stub, ok := l.stubs[path]; ok {
		return stub, nil
	}
	name := path
	if i := strings.LastIndex(name, "/"); i >= 0 {
		name = name[i+1:]
	}
	stub := types.NewPackage(path, name)
	stub.MarkComplete()
	l.stubs[path] = stub
	return stub, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
