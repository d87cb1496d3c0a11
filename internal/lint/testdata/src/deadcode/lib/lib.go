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

// cell is named only as the type argument of a stdlib generic.
type cell struct{ n int }

// Unused is a method of a reached type that no reached code selects.
func (h *Holder) Unused() int { return h.p.Load().n + unusedHelper() } // want deadcode

// unusedHelper is called only by a dead method, so it is dead too.
func unusedHelper() int { return 0 } // want deadcode

// Tick is never called by name, but main passes it as a func value.
func (h *Holder) Tick() {}

// Every runs fn.
func Every(fn func()) { fn() }

// String is called by fmt through fmt.Stringer, never by name here.
func (h *Holder) String() string { return "holder" }

// Shape is the interface Measure calls through.
type Shape interface{ Area() float64 }

// Measure selects Area only through the interface.
func Measure(s Shape) float64 { return s.Area() }

// Square implements Shape.
type Square struct{ Side float64 }

// Area is reached only through the interface call in Measure.
func (s Square) Area() float64 { return s.Side * s.Side }

// Gadget is reached only through the NewGadget seam below.
type Gadget struct{}

// Spin is selected nowhere, but the seam keeps its type's methods whole.
func (g *Gadget) Spin() int { return spinHelper() }

func spinHelper() int { return 3 }

// NewGadget is a seam by directive: the type it returns stays whole.
//
//lint:ignore deadcode fixture seam whose type only tests drive
func NewGadget() *Gadget { return &Gadget{} }

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
