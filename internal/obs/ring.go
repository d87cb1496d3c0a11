package obs

// Ring is a bounded history: it keeps the newest values up to a fixed
// capacity and overwrites the oldest once full. It has no lock of its
// own; its holder's lock guards it. The zero Ring holds nothing and has
// no room: a holder that allocates at its first value assigns NewRing
// then, and until then reads an empty history.
type Ring[T any] struct {
	buf  []T
	next int // slot the next Push writes
	n    int // values held, up to len(buf)
}

// NewRing returns an empty ring of capacity slots, allocated up front.
func NewRing[T any](capacity int) (r Ring[T]) {
	r.buf = make([]T, capacity)
	return r
}

// Push keeps v as the newest value and reports whether it overwrote
// the oldest.
func (r *Ring[T]) Push(v T) (evicted bool) {
	evicted = r.n == len(r.buf)
	r.buf[r.next] = v
	if r.next++; r.next == len(r.buf) {
		r.next = 0
	}
	if !evicted {
		r.n++
	}
	return evicted
}

// Len reports the values held.
func (r *Ring[T]) Len() int { return r.n }

// Newest returns a copy of the newest min(n, Len) values, oldest first:
// nil from the zero Ring, and empty but not nil from an allocated one.
func (r *Ring[T]) Newest(n int) []T {
	if r.buf == nil {
		return nil
	}
	n = max(0, min(n, r.n))
	out := make([]T, n)
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	copied := copy(out, r.buf[start:])
	copy(out[copied:], r.buf)
	return out
}
