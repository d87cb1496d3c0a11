// Command deadcode is the root of the deadcode rule's fixture: what it
// calls in lib is reached, and everything else in lib is judged from here.
package main

import "pervasivegrid/internal/lint/testdata/src/deadcode/lib"

func main() {
	h := lib.Live()
	lib.Reached()
	_ = lib.Measure(lib.Square{Side: 2})
	lib.Every(h.Tick)
}

// unused is never called, but a package main is all roots.
func unused() {}
