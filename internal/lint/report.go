package lint

import (
	"path/filepath"
	"strings"
)

// JSONFinding is one diagnostic in -json output.
type JSONFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Fix     string `json:"fix,omitempty"`
}

// JSONReport is the machine-readable output shape (schema pgridlint/v1).
type JSONReport struct {
	Schema string `json:"schema"`
	// Findings is sorted by position.
	Findings []JSONFinding `json:"findings"`
	Stats    JSONStats     `json:"stats"`
}

// JSONStats summarizes one run.
type JSONStats struct {
	Packages  int   `json:"packages"`
	Rules     int   `json:"rules"`
	New       int   `json:"new"`
	ElapsedMS int64 `json:"elapsedMs"`
}

// NewJSONReport assembles the -json payload.
func NewJSONReport(moduleRoot string, diags []Diagnostic, pkgs, rules int, elapsedMS int64) JSONReport {
	rep := JSONReport{
		Schema:   "pgridlint/v1",
		Findings: make([]JSONFinding, 0, len(diags)), // [] rather than null when clean
		Stats:    JSONStats{Packages: pkgs, Rules: rules, New: len(diags), ElapsedMS: elapsedMS},
	}
	for _, d := range diags {
		rep.Findings = append(rep.Findings, JSONFinding{
			File:    relFile(moduleRoot, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Rule:    d.Rule,
			Message: d.Message,
			Fix:     d.Fix,
		})
	}
	return rep
}

// relFile renders a diagnostic filename relative to the module root
// with forward slashes, falling back to the input when outside it.
func relFile(moduleRoot, file string) string {
	if moduleRoot == "" {
		return filepath.ToSlash(file)
	}
	rel, err := filepath.Rel(moduleRoot, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(file)
	}
	return filepath.ToSlash(rel)
}
