// Package hotalloc is the fixture corpus for the hotalloc analyzer: a
// hot root whose reachable allocation sites exceed its budget, one that
// fits, and an allocation-free root with the default zero budget;
// closure.go holds roots that run a helper through a local literal.
package hotalloc

import "fmt"

// Hot reaches four allocation sites (a string concatenation here, plus
// a composite literal, a make, and a fmt call in the helper) against a
// budget of two.
//
//lint:hot budget=2
func Hot() string { // want hotalloc
	s := helper()
	return s + "!"
}

func helper() string {
	m := map[string]int{}
	_ = m
	b := make([]byte, 4)
	return fmt.Sprintf("%v", b)
}

// Cool fits its budget exactly: one make, budget one.
//
//lint:hot budget=1
func Cool() []byte {
	return make([]byte, 8)
}

// Zero allocates nothing and says so: the default budget is zero.
//
//lint:hot
func Zero(x, y int) int { return x + y }

// deepRoot exceeds through a three-deep call chain: each level adds one
// composite literal.
//
//lint:hot budget=2
func DeepRoot() [3][]int { // want hotalloc
	return [3][]int{d1(), d2(), nil}
}

func d1() []int { return []int{1} }

func d2() []int { return append(d1(), 2) }
