// Package lib holds the deadcode rule's cases. Loaded without the
// fixture's main package, it reports nothing.
package lib

import "sync/atomic"

// Live is called from main.
func Live() *Holder { return &Holder{} }

// Holder is reached through Live's signature.
type Holder struct {
	p atomic.Pointer[cell]
}

// cell is named only as the argument of a stubbed stdlib generic.
type cell struct{ n int }

// Unused is called by nothing, but a method of a reached type is reached.
func (h *Holder) Unused() int { return h.p.Load().n }

// Dead is exported and nothing reaches it.
func Dead() int { return helper() } // want deadcode

// helper is reached only from Dead.
func helper() int { return 1 } // want deadcode

// Orphan is a type nothing reaches; its methods go with it.
type Orphan struct{} // want deadcode

func (Orphan) Method() {} // want deadcode

// Seam is a root by directive, so its callee stays alive. Its finding is
// raised and suppressed, which keeps the directive in use.
//
//lint:ignore deadcode fixture seam that only tests call
func Seam() int { return seamHelper() }

func seamHelper() int { return 2 }

// Reached is called from main, so its directive suppresses nothing.
//
//lint:ignore deadcode main calls this now // want deadignore
func Reached() {}

// Limit is a const and consts are never reported.
const Limit = 3

// table is a package-level var, a root: what it names is reached.
var table = map[string]func() int{"v": viaVar}

func viaVar() int { return Limit }
