package lint

import (
	"sort"
	"strings"
)

// BlockHeld flags any blocking operation reachable — directly, or through
// any depth of resolved helper calls — while a mutex is held. Blocking
// under a lock is how the PR 1 DisconnectionDeputy deadlocked: SetConnected
// flushed its buffer through next.Deliver under d.mu and a downstream
// deputy re-entered it, so the lock holder parked on something that could
// only make progress once the lock was free. The summary engine propagates
// "calling this can block" up the call graph, so the deadlock hides behind
// helpers at its peril.
//
// Blocking operations: channel send/receive, select without a default,
// Deliver/deliver, Wait, Sleep, Accept, net dials, and the Read and Write
// methods of package net's connections. The held-set tracking is a
// straight-line source-order scan per function: Lock/RLock opens a
// critical section keyed by the lock's class, a non-deferred
// Unlock/RUnlock closes it, and a *deferred* Unlock holds to function
// exit. That trades path sensitivity for zero false negatives on the
// idioms this codebase actually uses.
func BlockHeld() *Analyzer {
	return &Analyzer{
		Name:       "blockheld",
		Doc:        "blocking operation (chan op, select, Deliver, Wait, ...) reachable while a mutex is held",
		RunProgram: runBlockHeld,
	}
}

func runBlockHeld(pass *ProgramPass) {
	for _, fn := range pass.Graph.Funcs {
		held := map[string]bool{}
		for _, ev := range fn.Events {
			switch ev.Kind {
			case EventLock:
				held[ev.Detail] = true
			case EventUnlock:
				if !ev.Deferred {
					delete(held, ev.Detail)
				}
			case EventBlock:
				if len(held) == 0 {
					continue
				}
				pass.Report(fn.Pkg.Fset.Position(ev.Pos),
					ev.Detail+" while holding "+heldList(held)+" can deadlock or stall every other user of the lock",
					"move the blocking operation outside the critical section")
			case EventCall:
				if ev.Callee == nil || !ev.Callee.Blocks || len(held) == 0 {
					continue
				}
				pass.Report(fn.Pkg.Fset.Position(ev.Pos),
					"call while holding "+heldList(held)+" reaches a blocking op: "+
						ev.Callee.Name+" → "+ev.Callee.BlockWitness,
					"restructure so the lock is released before the call (collect under the lock, act after Unlock)")
			}
		}
	}
}

// heldList renders the held lock classes, sorted for determinism.
func heldList(held map[string]bool) string {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, LockClassString(k))
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}
