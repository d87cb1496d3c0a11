package obs

import (
	"math"
	"sync/atomic"
)

// Bucket layout. A bucket's key is a float64's exponent and top six
// mantissa bits (bits >> 46), so every octave [2^e, 2^(e+1)) splits into
// 64 equal sub-buckets and a bucket's upper bound overstates any value in
// it by at most 1/64. The window is 64 octaves, 2^-32 (≈0.23 ns as
// seconds) to 2^32: wall seconds, virtual seconds and message counts all
// land inside it. Smaller values, zero included, share the first bucket;
// larger ones share the last, which is open-ended.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	numOctaves = 64
	numBuckets = numOctaves * subBuckets
	keyShift   = 52 - subBits
	firstKey   = (1023 - numOctaves/2) << subBits // the key of 2^-32
)

// Histogram accumulates non-negative observations into log-linear
// buckets. Counters are allocated an octave at a time on first touch, so
// a histogram costs what it holds. Each bucket also keeps an exemplar:
// the TraceID of the last traced observation that landed in it, so a
// percentile can name a concrete request to go look at.
//
// Quantile answers with the upper bound of the bucket holding the
// requested rank, clamped to the exact observed max ("q of the
// observations were ≤ X"), and with the max itself once the rank reaches
// the last observation. All methods are lock-free, and a nil *Histogram
// is a no-op.
type Histogram struct {
	octaves [numOctaves]atomic.Pointer[octave]
	sum     Counter
	minBits atomic.Uint64 // float64 bits; values are ≥ 0, so bits order as values
	maxBits atomic.Uint64
}

type octave struct {
	counts [subBuckets]atomic.Uint64
	traces [subBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	return h
}

// bucketOf maps a non-negative value to its bucket.
func bucketOf(v float64) int {
	k := int(math.Float64bits(v)>>keyShift) - firstKey
	return min(max(k, 0), numBuckets-1)
}

// upper is bucket k's upper bound (exclusive; +Inf for the last bucket).
func upper(k int) float64 {
	if k == numBuckets-1 {
		return math.Inf(1)
	}
	return math.Float64frombits(uint64(k+firstKey+1) << keyShift)
}

// Observe records one sample. NaN is ignored; a negative value counts
// as 0.
//
// The one allocation site is an octave's first touch.
//
//lint:hot budget=1
func (h *Histogram) Observe(v float64) { h.ObserveTraced(v, 0) }

// ObserveTraced records one sample carrying the TraceID of the request
// that produced it (0 = untraced). The trace becomes its bucket's
// exemplar.
//
//lint:hot budget=1
func (h *Histogram) ObserveTraced(v float64, trace uint64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	if v <= 0 {
		v = 0 // also turns -0 into +0, whose bits sort first
	}
	k := bucketOf(v)
	o := h.octaves[k>>subBits].Load()
	if o == nil {
		h.octaves[k>>subBits].CompareAndSwap(nil, new(octave))
		o = h.octaves[k>>subBits].Load()
	}
	// Sum, min and max move before the count, so a reader that sees the
	// count also sees the value in them.
	h.sum.Add(v)
	bits := math.Float64bits(v)
	for old := h.minBits.Load(); bits < old && !h.minBits.CompareAndSwap(old, bits); old = h.minBits.Load() {
	}
	for old := h.maxBits.Load(); bits > old && !h.maxBits.CompareAndSwap(old, bits); old = h.maxBits.Load() {
	}
	if trace != 0 {
		o.traces[k&(subBuckets-1)].Store(trace)
	}
	o.counts[k&(subBuckets-1)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.octaves {
		if o := h.octaves[i].Load(); o != nil {
			for j := range o.counts {
				n += o.counts[j].Load()
			}
		}
	}
	return n
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.sum.Value() / float64(n)
}

// rank is the 1-based rank of the q-quantile among n > 0 observations;
// q outside [0, 1] clamps to the first or the last.
func rank(q float64, n uint64) uint64 {
	r := uint64(math.Max(q, 0)*float64(n) + 0.5)
	return min(max(r, 1), n)
}

// cursor is a walk over the buckets in ascending order: the bucket it
// stands on and how many observations lie below it. Successive seeks
// with non-decreasing ranks share one pass.
type cursor struct {
	k   int
	cum uint64
}

// seek moves c to the bucket holding the r-th smallest observation.
func (h *Histogram) seek(c *cursor, r uint64) int {
	for ; c.k < numBuckets; c.k++ {
		o := h.octaves[c.k>>subBits].Load()
		if o == nil {
			c.k |= subBuckets - 1 // skip the untouched octave
			continue
		}
		n := o.counts[c.k&(subBuckets-1)].Load()
		if c.cum+n >= r {
			return c.k
		}
		c.cum += n
	}
	return numBuckets - 1 // unreachable while counters only grow
}

// at answers the r-th smallest of n observations by the quantile rule.
// The max is read after the walk, so it bounds every counted value.
func (h *Histogram) at(c *cursor, r, n uint64) float64 {
	k := h.seek(c, r)
	if r == n {
		return h.Max()
	}
	return min(upper(k), h.Max())
}

// Quantile returns the q-quantile (q in [0, 1]; 0.99 is p99), or 0 when
// empty. The answer is at most 1/64 above the exact sample, never below
// it, and never above the max.
//
//lint:hot budget=0
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	var c cursor
	return h.at(&c, rank(q, n), n)
}

// Exemplar returns the TraceID of a request observed in the q-quantile's
// bucket or a slower one, or 0 when none was traced — an exemplar for
// p999 is never a faster request than the p999.
func (h *Histogram) Exemplar(q float64) uint64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	var c cursor
	for k := h.seek(&c, rank(q, n)); k < numBuckets; k++ {
		if o := h.octaves[k>>subBits].Load(); o != nil {
			if t := o.traces[k&(subBuckets-1)].Load(); t != 0 {
				return t
			}
		}
	}
	return 0
}

// MaxExemplar returns the exemplar of the slowest bucket (0 when it
// holds no traced request).
func (h *Histogram) MaxExemplar() uint64 { return h.Exemplar(1) }

// Bucket is one non-empty bucket of a histogram.
type Bucket struct {
	High  float64 // upper bound, clamped to the observed max
	Count uint64
	Trace uint64 // exemplar TraceID, 0 when none was traced
}

// Buckets lists the non-empty buckets in ascending order.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for k := 0; k < numBuckets; k++ {
		o := h.octaves[k>>subBits].Load()
		if o == nil {
			k |= subBuckets - 1
			continue
		}
		if n := o.counts[k&(subBuckets-1)].Load(); n > 0 {
			out = append(out, Bucket{High: upper(k), Count: n, Trace: o.traces[k&(subBuckets-1)].Load()})
		}
	}
	mx := h.Max()
	for i := range out {
		out[i].High = min(out[i].High, mx)
	}
	return out
}

// snapshot summarises the histogram in one pass over its buckets, so the
// quantiles are ordered: P50 ≤ P95 ≤ P99 ≤ Max.
func (h *Histogram) snapshot() HistogramSnapshot {
	n := h.Count()
	s := HistogramSnapshot{Count: n, Sum: h.sum.Value()}
	if n == 0 {
		return s
	}
	var c cursor
	s.P50 = h.at(&c, rank(0.50, n), n)
	s.P95 = h.at(&c, rank(0.95, n), n)
	s.P99 = h.at(&c, rank(0.99, n), n)
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = h.Max()
	return s
}
