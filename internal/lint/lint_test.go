package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pervasivegrid/internal/lint"
)

// loadFixture loads one testdata package through a fresh loader.
func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

// wantMarkers scans a fixture directory for trailing "// want rule..."
// comments and returns the expected findings as "base.go:LINE:rule".
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixtures: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, after, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(after) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, rule)] = true
			}
		}
	}
	return want
}

// gotKeys renders diagnostics in the marker key shape.
func gotKeys(diags []lint.Diagnostic) map[string]bool {
	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule)] = true
	}
	return got
}

// checkAgainstMarkers runs one analyzer over one fixture and compares
// the findings with the // want markers.
func checkAgainstMarkers(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	matchMarkers(t, lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a}), fixture)
}

// matchMarkers compares findings with the // want markers of the named
// fixture directories — missing and unexpected findings both fail, so
// seeded violations must fire and suppressed or clean shapes must stay
// silent.
func matchMarkers(t *testing.T, diags []lint.Diagnostic, fixtures ...string) {
	t.Helper()
	want := map[string]bool{}
	for _, f := range fixtures {
		for k := range wantMarkers(t, filepath.Join("testdata", "src", f)) {
			want[k] = true
		}
	}
	got := gotKeys(diags)
	for k := range want {
		if !got[k] {
			t.Errorf("missing expected finding %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected finding %s", k)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func TestRawClockFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.Forbid("rawclock"), "rawclock")
}

func TestRawClockExemptPackage(t *testing.T) {
	pkg := loadFixture(t, "rawclock")
	// Exempting the fixture's own path silences every finding.
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Forbid("rawclock", pkg.Path)})
	if len(diags) != 0 {
		t.Fatalf("exempt package still flagged: %v", diags)
	}
}

func TestRawSendFixture(t *testing.T) {
	pkg := loadFixture(t, "rawsend")
	checkAgainstMarkers(t, lint.Forbid("rawsend", pkg.Path), "rawsend")
}

func TestRawSendOffListPackage(t *testing.T) {
	pkg := loadFixture(t, "rawsend")
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Forbid("rawsend")})
	if len(diags) != 0 {
		t.Fatalf("off-list package flagged: %v", diags)
	}
}

func TestEnvHopsFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.Forbid("envhops"), "envhops")
}

func TestRawEventFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.Forbid("rawevent"), "rawevent")
}

func TestRawSpawnFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.RawSpawn(), "rawspawn")
}

// TestRawSpawnExemptPackage: exempting a package waives the supervision
// fence, not the stop signal — the one unstoppable goroutine still fires.
func TestRawSpawnExemptPackage(t *testing.T) {
	pkg := loadFixture(t, "rawspawn")
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.RawSpawn(pkg.Path)})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no stop signal") {
		t.Fatalf("exempt package: want only the no-stop-signal finding, got %v", diags)
	}
}

func TestRawFsyncFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.Forbid("rawfsync"), "rawfsync")
}

func TestRawFsyncExemptPackage(t *testing.T) {
	pkg := loadFixture(t, "rawfsync")
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Forbid("rawfsync", pkg.Path)})
	if len(diags) != 0 {
		t.Fatalf("exempt package still flagged: %v", diags)
	}
}

func TestLockOrderFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.LockOrder(), "lockorder")
}

func TestBlockHeldFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.BlockHeld(), "blockheld")
}

func TestHotAllocFixture(t *testing.T) {
	checkAgainstMarkers(t, lint.HotAlloc(), "hotalloc")
}

// TestHotAllocReadsLocalLiterals: a literal called where it stands, or
// bound to a local that is only called, counts the sites of its body and
// is no closure, so both forms reach what the closure-free root reaches.
func TestHotAllocReadsLocalLiterals(t *testing.T) {
	diags := lint.Run([]*lint.Package{loadFixture(t, "hotalloc")}, []*lint.Analyzer{lint.HotAlloc()})
	for _, root := range []string{"Direct", "Called", "Bound"} {
		want := "hot root hotalloc." + root + " reaches 3 allocation sites"
		found := false
		for _, d := range diags {
			found = found || strings.HasPrefix(d.Message, want+",")
		}
		if !found {
			t.Errorf("no finding %q in %v", want, diags)
		}
	}
}

// TestHotAllocFollowsGenerics: a call to a method of an instantiated
// generic type, or to a generic function instantiated by name, reaches
// the body it calls.
func TestHotAllocFollowsGenerics(t *testing.T) {
	diags := lint.Run([]*lint.Package{loadFixture(t, "hotalloc")}, []*lint.Analyzer{lint.HotAlloc()})
	for _, want := range []string{
		"hot root hotalloc.Method reaches 2 allocation sites,",
		"hot root hotalloc.Explicit reaches 1 allocation sites,",
	} {
		found := false
		for _, d := range diags {
			found = found || strings.HasPrefix(d.Message, want)
		}
		if !found {
			t.Errorf("no finding %q in %v", want, diags)
		}
	}
}

// TestDeadIgnoreFixture runs rawclock + deadignore together: the live
// suppression stays silent, the stale one is the only finding.
func TestDeadIgnoreFixture(t *testing.T) {
	pkg := loadFixture(t, "deadignore")
	diags := lint.Run([]*lint.Package{pkg},
		[]*lint.Analyzer{lint.Forbid("rawclock"), lint.DeadIgnore()})
	matchMarkers(t, diags, "deadignore")
}

// TestDeadCodeFixture runs deadcode + deadignore over the fixture's main
// package and the library it imports, loaded through one loader so both
// share type objects.
func TestDeadCodeFixture(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, dir := range []string{"deadcode", "deadcode/lib"} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	diags := lint.Run(pkgs, []*lint.Analyzer{lint.DeadCode(), lint.DeadIgnore()})
	matchMarkers(t, diags, "deadcode", "deadcode/lib")

	// Without a package main nothing is a command's reach: no findings.
	if diags := lint.Run(pkgs[1:], []*lint.Analyzer{lint.DeadCode()}); len(diags) != 0 {
		t.Fatalf("deadcode reported without a package main: %v", diags)
	}
}

// TestDeadIgnoreRespectsRuleSubset: when the rule a directive names did
// not run, the directive's deadness is unknowable and nothing fires.
func TestDeadIgnoreRespectsRuleSubset(t *testing.T) {
	pkg := loadFixture(t, "deadignore")
	// rawclock is NOT in the run: even the stale rawclock directive
	// must be left alone.
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.DeadIgnore()})
	if len(diags) != 0 {
		t.Fatalf("deadignore fired for a rule outside the run: %v", diags)
	}
}

// TestGraphBlockSummaries pins the fixed-point propagation: the
// three-deep helper chain in the blockheld fixture makes every level
// carry Blocks with a witness chain ending at the channel receive.
func TestGraphBlockSummaries(t *testing.T) {
	pkg := loadFixture(t, "blockheld")
	g := lint.BuildGraph([]*lint.Package{pkg})
	byName := map[string]*lint.FuncNode{}
	for _, fn := range g.Funcs {
		byName[fn.Name] = fn
	}
	for _, name := range []string{"blockheld.(*Node).h3", "blockheld.(*Node).h2", "blockheld.(*Node).h1"} {
		fn := byName[name]
		if fn == nil {
			t.Fatalf("graph missing %s (have %v)", name, keysOf(byName))
		}
		if !fn.Blocks {
			t.Errorf("%s should carry Blocks", name)
		}
	}
	h1 := byName["blockheld.(*Node).h1"]
	if !strings.Contains(h1.BlockWitness, "channel receive") {
		t.Errorf("h1 witness should reach the channel receive, got %q", h1.BlockWitness)
	}
	if !strings.Contains(h1.BlockWitness, "h2") {
		t.Errorf("h1 witness should go through h2, got %q", h1.BlockWitness)
	}
}

// TestGraphAcquireSummaries: cd never names D's mutex but acquires it
// through lockD; the summary must say so.
func TestGraphAcquireSummaries(t *testing.T) {
	pkg := loadFixture(t, "lockorder")
	g := lint.BuildGraph([]*lint.Package{pkg})
	for _, fn := range g.Funcs {
		if fn.Name != "lockorder.cd" {
			continue
		}
		for class := range fn.Acquires {
			if strings.Contains(class, "D.mu") {
				return
			}
		}
		t.Fatalf("cd should transitively acquire D.mu, has %v", fn.Acquires)
	}
	t.Fatal("graph missing lockorder.cd")
}

func keysOf(m map[string]*lint.FuncNode) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestMalformedDirectives: a lint:ignore without rule or reason is
// itself a finding, even with no analyzers running.
func TestMalformedDirectives(t *testing.T) {
	pkg := loadFixture(t, "directives")
	diags := lint.Run([]*lint.Package{pkg}, nil)
	if len(diags) != 2 {
		t.Fatalf("want 2 lint-directive findings, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Rule != "lint-directive" {
			t.Errorf("want rule lint-directive, got %s", d.Rule)
		}
	}
}

// TestDiagnosticString pins the file:line:col rendering the Makefile
// gate and editors rely on.
func TestDiagnosticString(t *testing.T) {
	pkg := loadFixture(t, "envhops")
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.Forbid("envhops")})
	if len(diags) == 0 {
		t.Fatal("no diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "envhops.go:") || !strings.Contains(s, ": envhops: ") || !strings.Contains(s, "(fix: ") {
		t.Fatalf("unexpected rendering: %s", s)
	}
}

// TestLoaderResolvesInModuleImports: the fixture imports the real
// agent package; its named types must resolve so rawsend/envhops can
// key on them.
func TestLoaderResolvesInModuleImports(t *testing.T) {
	pkg := loadFixture(t, "envhops")
	if pkg.Types == nil {
		t.Fatal("no types")
	}
	if want := "pervasivegrid/internal/lint/testdata/src/envhops"; pkg.Path != want {
		t.Fatalf("path = %q, want %q", pkg.Path, want)
	}
}

// TestLoadPatternsWalk: ./... from the module root discovers the real
// packages and skips testdata.
func TestLoadPatternsWalk(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("", "./...")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	has := func(want string) bool {
		for _, p := range paths {
			if p == want {
				return true
			}
		}
		return false
	}
	if !has("pervasivegrid/internal/agent") || !has("pervasivegrid/internal/lint") {
		t.Fatalf("walk missed core packages: %v", paths)
	}
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Fatalf("walk descended into testdata: %s", p)
		}
	}
}

// TestRepoIsClean is the in-suite version of make lint: the production
// analyzer set over the whole module — internal/, cmd/, examples/ and
// bench/ alike — must report nothing. The commands, examples and bench
// are also deadcode's roots.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadPatterns("", "./...")
	if err != nil {
		t.Fatalf("LoadPatterns: %v", err)
	}

	// The gate is only as wide as the load: make sure ./... really did
	// pull in the command and example trees, not just internal/.
	trees := map[string]bool{}
	for _, p := range pkgs {
		for _, prefix := range []string{"internal/", "cmd/", "examples/"} {
			if strings.HasPrefix(strings.TrimPrefix(p.Path, "pervasivegrid/"), prefix) {
				trees[prefix] = true
			}
		}
	}
	for _, prefix := range []string{"internal/", "cmd/", "examples/"} {
		if !trees[prefix] {
			t.Errorf("no %s packages loaded — the repo-clean gate lost coverage", prefix)
		}
	}

	for _, d := range lint.Run(pkgs, lint.Default()) {
		t.Errorf("%s", d)
	}
}

// BenchmarkLintRepo times a full production run — module load, call
// graph, fixed point, every analyzer — over the whole repository. It
// backs the make-check wall-time budget: if the fixed-point engine
// regresses from milliseconds toward minutes, this is the number that
// moves first.
func BenchmarkLintRepo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := lint.NewLoader(".")
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.LoadPatterns("", "./...")
		if err != nil {
			b.Fatalf("LoadPatterns: %v", err)
		}
		if diags := lint.Run(pkgs, lint.Default()); len(diags) > 0 {
			b.Fatalf("repo not clean during bench: %v", diags[0])
		}
	}
}
