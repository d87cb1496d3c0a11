package hotalloc

// box is a generic type whose method allocates twice.
type box[T any] struct{ items []T }

func (b *box[T]) put(v T) {
	b.items = append(b.items, v)
	_ = make([]T, 1)
}

// newBox allocates once; its type parameter cannot be inferred, so every
// call names it.
func newBox[T any]() *box[T] { return &box[T]{} }

// Method calls a method of an instantiated generic type: the call
// resolves to the method's declaration, so its two sites count against
// a budget of one.
//
//lint:hot budget=1
func Method(b *box[int]) { // want hotalloc
	b.put(1)
}

// Explicit calls a generic function instantiated by name: its one site
// counts against a budget of zero.
//
//lint:hot budget=0
func Explicit() *box[string] { // want hotalloc
	return newBox[string]()
}
