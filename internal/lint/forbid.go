package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
)

// forbidRow is one "this object is forbidden here" invariant: functions
// or methods of one package that must not be selected, or a type of it
// that must not be built as a composite literal, outside (or only
// inside) a list of packages. Each row is its own rule.
type forbidRow struct {
	rule, doc string
	// pkg declares the forbidden objects.
	pkg string
	// lit makes names types whose composite literals are forbidden.
	// Otherwise names are functions ("Now") and methods with their
	// receiver type ("File.Write"), forbidden wherever a selector
	// resolves to one: a call, a method value, a promoted method.
	lit   bool
	names []string
	// only limits the row to these packages when set; except exempts
	// these.
	only, except []string
	// msg is formatted with the forbidden name qualified by its package
	// name ("time.Now", "os.File.Write").
	msg, fix string
}

// forbidTable is the rows, one per rule. docs/static-analysis.md gives
// the incident behind each.
var forbidTable = []forbidRow{{
	// All time flows through the obs.Clock seam, so a FakeClock drives
	// retry, backoff and staleness deterministically. The pure parts of
	// package time (Duration, Date, parsing) stay allowed.
	rule:   "rawclock",
	doc:    "wall-clock access outside the obs.Clock seam (time.Now/Sleep/After/... beyond the exempt packages)",
	pkg:    "time",
	names:  []string{"Now", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker", "Since", "Until"},
	except: []string{obsPkgPath},
	msg:    "%s bypasses the obs.Clock seam (FakeClock tests cannot control it)",
	fix:    "thread an obs.Clock through this path, or use obs.Real explicitly",
}, {
	// These packages talk across node boundaries, where a raw send turns
	// a full mailbox or a link mid-reconnect into silent loss.
	rule:  "rawsend",
	doc:   "raw Send/Call in a package on the retry-required list (use SendRetry/CallRetry)",
	pkg:   agentPkgPath,
	names: []string{"Call", "Platform.Send", "Context.Send"},
	only:  []string{"pervasivegrid/internal/telemetry", "pervasivegrid/internal/core"},
	msg:   "raw %s loses the message on one transient failure (mailbox full, link mid-reconnect)",
	fix:   "use agent.SendRetry or agent.CallRetry, or //lint:ignore rawsend with the reason the loss is acceptable",
}, {
	// NewEnvelope and Reply keep the content encoding, the reply
	// correlation and the hop accounting behind DefaultMaxHops honest;
	// inside internal/agent the literals are those constructors.
	rule:   "envhops",
	doc:    "raw agent.Envelope literal outside internal/agent (bypasses NewEnvelope/Reply and DefaultMaxHops TTL accounting)",
	pkg:    agentPkgPath,
	lit:    true,
	names:  []string{"Envelope"},
	except: []string{agentPkgPath},
	msg:    "raw %s literal skips NewEnvelope/Reply (content encoding, reply correlation, DefaultMaxHops TTL accounting)",
	fix:    "build envelopes with agent.NewEnvelope or Envelope.Reply",
}, {
	// NewEvent pins the identity fields the monitor, the flight recorder
	// and the exemplar join key on.
	rule:   "rawevent",
	doc:    "raw obs.Event literal outside internal/obs (bypasses NewEvent and the wide-event identity fields)",
	pkg:    obsPkgPath,
	lit:    true,
	names:  []string{"Event"},
	except: []string{obsPkgPath},
	msg:    "raw %s literal skips NewEvent (trace/node/from/to identity fields the monitor, flight recorder, and exemplar join key on)",
	fix:    "build wide events with obs.NewEvent and the accretion helpers (AddPhase/SetAttr/Finish)",
}, {
	// Node state is journaled through internal/durable's framed WAL; a
	// raw write to any *os.File bypasses the framing, the fsync policy
	// and the recovery scan. Close is not a durability hazard.
	rule:   "rawfsync",
	doc:    "direct os.File Write/Sync/Truncate outside the durable WAL layer",
	pkg:    "os",
	names:  []string{"File.Write", "File.WriteString", "File.WriteAt", "File.Sync", "File.Truncate"},
	except: []string{"pervasivegrid/internal/durable"},
	msg:    "raw %s bypasses the durable WAL layer (no framing, no fsync policy, no torn-tail recovery)",
	fix:    "journal through internal/durable (WAL.Append / Store), or exempt the package if it legitimately owns raw file I/O",
}}

// Forbid returns the analyzer for the forbidTable row named rule. When
// pkgs are given they replace the row's package list (the packages it is
// limited to, or the ones it exempts).
func Forbid(rule string, pkgs ...string) *Analyzer {
	for _, row := range forbidTable {
		if row.rule != rule {
			continue
		}
		if pkgs != nil && row.only != nil {
			row.only = pkgs
		} else if pkgs != nil {
			row.except = pkgs
		}
		return &Analyzer{Name: row.rule, Doc: row.doc, Run: row.run}
	}
	panic("lint: no forbid rule " + rule)
}

// run reports every selector and composite literal of the package that
// resolves to one of the row's names.
func (r forbidRow) run(pass *Pass) {
	path := pass.Pkg.Path
	if slices.Contains(r.except, path) || r.only != nil && !slices.Contains(r.only, path) {
		return
	}
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var obj types.Object
			if sel, ok := n.(*ast.SelectorExpr); ok && !r.lit {
				obj = info.Uses[sel.Sel]
			} else if lit, ok := n.(*ast.CompositeLit); ok && r.lit {
				if named := namedOf(info.TypeOf(lit)); named != nil {
					obj = named.Obj()
				}
			}
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != r.pkg {
				return true
			}
			name := obj.Name()
			if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
				recv := namedOf(fn.Signature().Recv().Type())
				if recv == nil {
					return true
				}
				name = recv.Obj().Name() + "." + name
			}
			if slices.Contains(r.names, name) {
				pass.Report(n, fmt.Sprintf(r.msg, obj.Pkg().Name()+"."+name), r.fix)
			}
			return true
		})
	}
}
