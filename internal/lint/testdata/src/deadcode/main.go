// Command deadcode is the root of the deadcode rule's fixture: what it
// calls in lib is reached, and everything else in lib is judged from here.
package main

import "pervasivegrid/internal/lint/testdata/src/deadcode/lib"

func main() {
	_ = lib.Live()
	lib.Reached()
}

// unused is never called, but a package main is all roots.
func unused() {}
