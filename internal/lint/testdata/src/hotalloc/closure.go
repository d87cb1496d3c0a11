package hotalloc

import "fmt"

// build allocates three times: a composite literal, a make and a fmt call.
func build() string {
	parts := []string{"a"}
	b := make([]byte, len(parts))
	return fmt.Sprint(parts, b)
}

// Direct calls the helper itself: three sites against a budget of two.
//
//lint:hot budget=2
func Direct() string { // want hotalloc
	return build()
}

// Called runs the helper through a literal called where it stands. The
// literal is part of Called, so it reaches the same three sites.
//
//lint:hot budget=2
func Called() string { // want hotalloc
	return func() string { return build() }()
}

// Bound binds the literal to a local that it only ever calls: again the
// same three sites, and no closure.
//
//lint:hot budget=2
func Bound() string { // want hotalloc
	run := func() string { return build() }
	return run()
}

// Escaping hands its literal out as a value. Whoever runs it is out of
// sight, so the literal is one closure site and its body is not read.
//
//lint:hot budget=1
func Escaping() func() string {
	return func() string { return build() }
}

// Deferred runs its literal at return, not where it stands: the literal
// stays a closure site.
//
//lint:hot budget=0
func Deferred() { // want hotalloc
	defer func() { _ = build() }()
}
