package lint

import (
	"go/ast"
)

// EnvHops flags raw agent.Envelope composite literals outside the agent
// package itself. A hand-rolled literal bypasses NewEnvelope and Reply,
// the constructors that keep the envelope conventions honest: JSON
// content encoding (Decode refuses anything else), reply correlation
// (InReplyTo/TraceID inheritance), and above all the hop accounting
// that feeds the platform's DefaultMaxHops TTL — an envelope whose Hops field
// is managed by hand can loop between gateways forever or be dropped on
// its first hop. Inside internal/agent the literals ARE the
// constructors; everywhere else they are a bug waiting for a route
// change.
func EnvHops() *Analyzer {
	return &Analyzer{
		Name: "envhops",
		Doc:  "raw agent.Envelope literal outside internal/agent (bypasses NewEnvelope/Reply and DefaultMaxHops TTL accounting)",
		Run: func(pass *Pass) {
			if pass.Pkg.Path == agentPkgPath {
				return
			}
			for _, file := range pass.Pkg.Files {
				f := file
				ast.Inspect(f, func(n ast.Node) bool {
					lit, ok := n.(*ast.CompositeLit)
					if !ok {
						return true
					}
					// Resolve the literal's type: prefer go/types, fall
					// back to the syntactic qualifier for robustness.
					if tv, ok := pass.Pkg.Info.Types[lit]; ok {
						if path, name, ok := NamedType(tv.Type); ok {
							if path == agentPkgPath && name == "Envelope" {
								reportEnvLit(pass, lit)
							}
							return true
						}
					}
					if sel, ok := lit.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Envelope" {
						if id, ok := sel.X.(*ast.Ident); ok && pass.ImportedPath(f, id) == agentPkgPath {
							reportEnvLit(pass, lit)
						}
					}
					return true
				})
			}
		},
	}
}

func reportEnvLit(pass *Pass, lit *ast.CompositeLit) {
	pass.Report(lit,
		"raw agent.Envelope literal skips NewEnvelope/Reply (content encoding, reply correlation, DefaultMaxHops TTL accounting)",
		"build envelopes with agent.NewEnvelope or Envelope.Reply")
}
