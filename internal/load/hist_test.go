package load

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestHistogramQuantilesAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	n := 20_000
	vals := make([]int64, n)
	for i := range vals {
		// Mixed regimes: µs-scale bulk plus a heavy ms-scale tail.
		v := int64(rng.ExpFloat64() * 2e5)
		if rng.Intn(100) == 0 {
			v += int64(rng.Intn(50)) * int64(time.Millisecond)
		}
		vals[i] = v
		h.Record(time.Duration(v))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	if histCount(h) != int64(n) {
		t.Fatalf("count = %d, want %d", histCount(h), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(n))-1]
		got := int64(h.Quantile(q))
		// Upper-bound semantics: got >= exact, within one octave sub-bucket
		// (~1.6% relative error) plus rounding slack near the rank edge.
		if got < exact-exact/32 {
			t.Fatalf("q=%g: histogram %d below exact %d", q, got, exact)
		}
		if got > exact+exact/16+1 {
			t.Fatalf("q=%g: histogram %d overshoots exact %d beyond bucket error", q, got, exact)
		}
	}
	if h.Quantile(1) != h.Max() {
		t.Fatalf("p100 %v != max %v", h.Quantile(1), h.Max())
	}
}

func TestHistogramBucketBoundsRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back into that bucket, and
	// bounds must be strictly increasing.
	prev := int64(-1)
	for idx := 0; idx <= bucketIndex(1<<40); idx++ {
		hi := bucketHigh(idx)
		if bucketIndex(hi) != idx {
			t.Fatalf("bucketHigh(%d)=%d maps to bucket %d", idx, hi, bucketIndex(hi))
		}
		if hi <= prev {
			t.Fatalf("bucket %d bound %d not above previous %d", idx, hi, prev)
		}
		prev = hi
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-time.Second) // clamps to zero
	if histCount(h) != 1 || h.Max() != 0 {
		t.Fatalf("negative record: count=%d max=%v", histCount(h), h.Max())
	}
}

// TestHistogramExemplars checks that tail percentiles answer with a
// concrete TraceID no faster than the percentile itself: the p99
// exemplar must come from the p99 bucket or the slower tail.
func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	const fastTrace, slowTrace, maxTrace = 0x111, 0x222, 0x333
	for i := 0; i < 990; i++ {
		h.RecordTraced(time.Millisecond, fastTrace)
	}
	for i := 0; i < 9; i++ {
		h.RecordTraced(80*time.Millisecond, slowTrace)
	}
	h.RecordTraced(500*time.Millisecond, maxTrace)

	if got := h.Exemplar(0.50); got != fastTrace {
		t.Fatalf("p50 exemplar = %#x, want fast trace %#x", got, fastTrace)
	}
	if got := h.Exemplar(0.999); got != slowTrace && got != maxTrace {
		t.Fatalf("p999 exemplar = %#x, want a tail trace", got)
	}
	if got := h.MaxExemplar(); got != maxTrace {
		t.Fatalf("max exemplar = %#x, want %#x", got, maxTrace)
	}
	// Untraced observations leave no exemplar, and an untraced histogram
	// answers 0 rather than inventing one.
	u := NewHistogram()
	u.Record(time.Millisecond)
	if u.Exemplar(0.99) != 0 || u.MaxExemplar() != 0 {
		t.Fatal("untraced histogram produced an exemplar")
	}
	// The serialized buckets carry the exemplars in hex.
	snap := h.Snapshot()
	if got := snap[len(snap)-1].Trace; got != "0000000000000333" {
		t.Fatalf("slowest bucket exemplar = %q, want the max trace", got)
	}
}

// histCount sums a histogram's buckets: how many observations it holds.
func histCount(h *Histogram) int64 {
	var n int64
	for _, b := range h.Snapshot() {
		n += b.Count
	}
	return n
}

// TestHistogramExemplarNeverFaster floods the fast buckets with traced
// requests and leaves the slow tail untraced: the tail exemplar must
// fall back to the max trace, never a fast bucket's.
func TestHistogramExemplarNeverFaster(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 999; i++ {
		h.RecordTraced(time.Millisecond, 0xfa57)
	}
	h.RecordTraced(time.Second, 0x510)
	if got := h.Exemplar(0.9999); got != 0x510 {
		t.Fatalf("tail exemplar = %#x, want the slow trace 0x510", got)
	}
}
