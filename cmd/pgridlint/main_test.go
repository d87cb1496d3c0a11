package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pervasivegrid/internal/lint"
)

// runCLI captures one driver invocation.
func runCLI(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, dir, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, ".", "./testdata/clean")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d (stdout=%q stderr=%q)", code, exitClean, stdout, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run printed findings: %q", stdout)
	}
}

func TestFindingsExitOne(t *testing.T) {
	code, stdout, stderr := runCLI(t, ".", "./testdata/dirty")
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitFindings, stderr)
	}
	if !strings.Contains(stdout, "rawclock") || !strings.Contains(stdout, "rawspawn") {
		t.Fatalf("findings missing expected rules:\n%s", stdout)
	}
	// The suppressed time.Sleep in Quiet must not appear.
	if strings.Contains(stdout, "time.Sleep") {
		t.Fatalf("suppressed finding leaked into output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Fatalf("summary line missing: %q", stderr)
	}
}

func TestRulesFlagFilters(t *testing.T) {
	code, stdout, _ := runCLI(t, ".", "-rules", "rawspawn", "./testdata/dirty")
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}
	if strings.Contains(stdout, "rawclock") {
		t.Fatalf("-rules rawspawn still ran rawclock:\n%s", stdout)
	}
	if !strings.Contains(stdout, "rawspawn") {
		t.Fatalf("-rules rawspawn produced no rawspawn finding:\n%s", stdout)
	}
}

func TestUnknownRuleExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, ".", "-rules", "nosuchrule", "./testdata/dirty")
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	if !strings.Contains(stderr, "unknown rule") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	code, _, _ := runCLI(t, ".", "-definitely-not-a-flag")
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
}

func TestMissingPackageExitsTwo(t *testing.T) {
	code, _, stderr := runCLI(t, ".", "./testdata/no-such-dir")
	if code != exitError {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitError, stderr)
	}
}

func TestParseErrorExitsTwo(t *testing.T) {
	// A module whose only package does not parse: load error, exit 2.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module brokenmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\n\nfunc Oops( {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, dir, "./...")
	if code != exitError {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitError, stderr)
	}
	if !strings.Contains(stderr, "parse") {
		t.Fatalf("stderr should mention the parse failure: %q", stderr)
	}
}

func TestTypeErrorExitsTwo(t *testing.T) {
	// Code that parses but does not type-check: load error, exit 2, and
	// the message names the file and line.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module brokenmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package broken\n\nfunc Oops() int {\n\treturn \"one\"\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, dir, "./...")
	if code != exitError {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitError, stderr)
	}
	if !strings.Contains(stderr, "broken.go:4:") {
		t.Fatalf("stderr should name the file and line of the type error: %q", stderr)
	}
}

func TestListFlag(t *testing.T) {
	code, stdout, _ := runCLI(t, ".", "-list")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d", code, exitClean)
	}
	for _, rule := range []string{
		"rawclock", "rawsend", "envhops", "rawevent", "rawspawn", "rawfsync",
		"lockorder", "blockheld", "hotalloc", "deadcode", "deadignore",
	} {
		if !strings.Contains(stdout, rule) {
			t.Fatalf("-list output missing %s:\n%s", rule, stdout)
		}
	}
}

func TestJSONReportShape(t *testing.T) {
	code, stdout, _ := runCLI(t, ".", "-json", "./testdata/dirty")
	if code != exitFindings {
		t.Fatalf("exit = %d, want %d", code, exitFindings)
	}
	var rep lint.JSONReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if rep.Schema != "pgridlint/v1" {
		t.Fatalf("schema = %q, want pgridlint/v1", rep.Schema)
	}
	if len(rep.Findings) == 0 || rep.Stats.New != len(rep.Findings) {
		t.Fatalf("stats.new = %d, findings = %d", rep.Stats.New, len(rep.Findings))
	}
	for _, f := range rep.Findings {
		if f.File == "" || f.Line == 0 || f.Rule == "" || f.Message == "" {
			t.Fatalf("finding missing fields: %+v", f)
		}
		if strings.Contains(f.File, "\\") || filepath.IsAbs(f.File) {
			t.Fatalf("finding file should be module-relative with forward slashes: %q", f.File)
		}
	}
	if rep.Stats.Packages != 1 || rep.Stats.Rules == 0 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
}

func TestJSONCleanRun(t *testing.T) {
	code, stdout, _ := runCLI(t, ".", "-json", "./testdata/clean")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d", code, exitClean)
	}
	var rep lint.JSONReport
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	// findings must be [], not null, so consumers can range unconditionally.
	if !strings.Contains(stdout, `"findings": []`) {
		t.Fatalf("clean report should carry an empty findings array:\n%s", stdout)
	}
}

func TestTimeBudget(t *testing.T) {
	// A generous budget passes and prints the wall time.
	code, _, stderr := runCLI(t, ".", "-time-budget", "5m", "./testdata/clean")
	if code != exitClean {
		t.Fatalf("exit = %d, want %d (stderr=%q)", code, exitClean, stderr)
	}
	if !strings.Contains(stderr, "budget 5m") {
		t.Fatalf("wall-time line missing: %q", stderr)
	}
	// An impossible budget fails with the infrastructure exit code.
	code, _, stderr = runCLI(t, ".", "-time-budget", "1ns", "./testdata/clean")
	if code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	if !strings.Contains(stderr, "exceeded time budget") {
		t.Fatalf("budget failure not explained: %q", stderr)
	}
}
