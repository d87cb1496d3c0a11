package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one loaded, parsed, and type-checked package.
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
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the resolution maps the analyzers consult.
	Info *types.Info
}

// Loader loads packages of one module: it parses them from source and
// type-checks them with no errors tolerated. In-module imports are
// checked from source (recursively, with memoization); every other
// import, the standard library above all, is read from the compiler's
// export data, which `go list -export` locates in the build cache. So
// every name an analyzer meets resolves through go/types, and none is
// guessed from its spelling.
type Loader struct {
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module's declared import path.
	ModulePath string

	fset    *token.FileSet
	files   map[string][]*ast.File // parsed sources by directory
	walked  map[string]bool        // directories listExports has seen
	pkgs    map[string]*Package    // memo by import path
	loading map[string]bool        // cycle guard
	std     types.Importer         // export data of every out-of-module import
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
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		files:      map[string][]*ast.File{},
		walked:     map[string]bool{},
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
		std:        importer.ForCompiler(fset, "gc", openExport),
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
	if err := l.listExports(dirs); err != nil {
		return nil, err
	}
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
// only), memoized by import path. The first type error fails the load.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := l.listExports([]string{abs}); err != nil {
		return nil, err
	}
	return l.load(abs)
}

// load type-checks the package in the absolute directory abs, loading
// its in-module imports first.
func (l *Loader) load(abs string) (*Package, error) {
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

	files, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   abs,
		Fset:  l.fset,
		Files: files,
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
		},
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	if pkg.Types, err = conf.Check(importPath, l.fset, files, pkg.Info); err != nil {
		return nil, fmt.Errorf("lint: type-check: %w", err)
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// parseDir parses the non-test sources of dir once.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	if files, ok := l.files[dir]; ok {
		return files, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: read %s: %w", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %s contains no Go files", dir)
	}
	l.files[dir] = files
	return files, nil
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

// dirOf maps an in-module import path to its directory; ok is false for
// any other path.
func (l *Loader) dirOf(path string) (dir string, ok bool) {
	rel, ok := strings.CutPrefix(path, l.ModulePath)
	if !ok || rel != "" && rel[0] != '/' {
		return "", false
	}
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)), true
}

// importPkg resolves one import during type checking: in-module paths
// are loaded from source, everything else from export data.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if dir, ok := l.dirOf(path); ok {
		pkg, err := l.load(dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportFiles maps each out-of-module import path the process has met
// to its export data file ("" when go list found none). It is filled by
// listExports and shared by every loader: the files sit in the build
// cache and do not change under a running process.
var exportFiles = struct {
	sync.Mutex
	m map[string]string
}{m: map[string]string{}}

// listExports runs `go list -export` once for every out-of-module
// import reachable from dirs through in-module imports that the process
// has not listed yet. Only those packages are listed, not all of std:
// after a build or vet of the module their export data is already in
// the build cache, so the run reads it rather than compiling.
func (l *Loader) listExports(dirs []string) error {
	exportFiles.Lock()
	defer exportFiles.Unlock()
	seen := map[string]bool{}
	var missing []string
	var walk func(dir string) error
	walk = func(dir string) error {
		if l.walked[dir] {
			return nil
		}
		l.walked[dir] = true
		files, err := l.parseDir(dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if sub, ok := l.dirOf(path); ok {
					if err := walk(sub); err != nil {
						return err
					}
				} else if _, listed := exportFiles.m[path]; !listed && !seen[path] {
					seen[path] = true
					missing = append(missing, path)
				}
			}
		}
		return nil
	}
	for _, dir := range dirs {
		if err := walk(dir); err != nil {
			return err
		}
	}
	if len(missing) == 0 {
		return nil
	}
	// -e keeps going past a path go list cannot find: it gets no export
	// file, and the type checker reports the import at its position.
	cmd := exec.Command("go", append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)...)
	cmd.Dir = l.ModuleRoot
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %v: %s", err, stderr.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			exportFiles.m[path] = file
		}
	}
	return nil
}

// openExport is the export-data importer's lookup.
func openExport(path string) (io.ReadCloser, error) {
	exportFiles.Lock()
	file := exportFiles.m[path]
	exportFiles.Unlock()
	if file == "" {
		return nil, fmt.Errorf("no export data for %s", path)
	}
	return os.Open(file)
}
