package obs

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
)

// within checks the quantile rule against an exact sample: never below
// it, at most one sub-bucket (1/64) above it.
func within(t *testing.T, what string, got, exact float64) {
	t.Helper()
	if got < exact || got > exact*(1+1.0/64) {
		t.Fatalf("%s = %g, want in [%g, %g]", what, got, exact, exact*(1+1.0/64))
	}
}

func TestHistogramQuantilesAgainstExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	n := 20_000
	vals := make([]float64, n)
	for i := range vals {
		// Mixed regimes: a µs-scale bulk plus a heavy ms-scale tail.
		ns := int64(rng.ExpFloat64() * 2e5)
		if rng.Intn(100) == 0 {
			ns += int64(rng.Intn(50)) * 1e6
		}
		vals[i] = float64(ns) / 1e9
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	if h.Count() != uint64(n) {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		within(t, "quantile", h.Quantile(q), vals[int(q*float64(n))-1])
	}
	if h.Quantile(1) != vals[n-1] || h.Max() != vals[n-1] {
		t.Fatalf("p100 %g, max %g, want the exact max %g", h.Quantile(1), h.Max(), vals[n-1])
	}
}

// TestHistogramBucketBoundsRoundTrip walks every bucket: bounds strictly
// increase, each bound is where the next bucket starts, and no bucket is
// wider than 1/64 of its lower bound.
func TestHistogramBucketBoundsRoundTrip(t *testing.T) {
	lo := math.Float64frombits(uint64(firstKey) << keyShift)
	if lo != math.Ldexp(1, -numOctaves/2) {
		t.Fatalf("window starts at %g, want 2^-32", lo)
	}
	for k := 0; k < numBuckets-1; k++ {
		hi := upper(k)
		if hi <= lo || hi > lo*(1+1.0/64) {
			t.Fatalf("bucket %d = [%g, %g): not above its start or wider than 1/64", k, lo, hi)
		}
		if bucketOf(hi) != k+1 || bucketOf(math.Nextafter(hi, 0)) != k {
			t.Fatalf("bucket %d bound %g maps to %d / %d", k, hi, bucketOf(math.Nextafter(hi, 0)), bucketOf(hi))
		}
		lo = hi
	}
	if !math.IsInf(upper(numBuckets-1), 1) {
		t.Fatal("the last bucket must be open-ended")
	}
	if 1e-9 < math.Ldexp(1, -numOctaves/2) || 1e6 >= math.Ldexp(1, numOctaves/2) {
		t.Fatal("the window must cover 1 ns to 10^6")
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Exemplar(0.5) != 0 || h.Buckets() != nil {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-1) // clamps to zero
	h.Observe(math.Copysign(0, -1))
	if h.Count() != 2 || h.Max() != 0 || h.Quantile(0.5) != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative record: count=%d max=%g p50=%g", h.Count(), h.Max(), h.Quantile(0.5))
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h := NewHistogram()
	h.Observe(math.NaN())
	h.ObserveTraced(math.NaN(), 7)
	if h.Count() != 0 || h.Exemplar(1) != 0 {
		t.Fatalf("NaN recorded: count=%d", h.Count())
	}
	h.Observe(2)
	if h.Count() != 1 || h.Mean() != 2 || h.Quantile(0.5) != 2 {
		t.Fatalf("after NaN: count=%d mean=%g p50=%g", h.Count(), h.Mean(), h.Quantile(0.5))
	}
}

// TestHistogramAboveTopOctave lands values past 2^32 in the open last
// bucket: quantiles there answer the exact max, never an invented bound.
func TestHistogramAboveTopOctave(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	h.Observe(1e12)
	h.Observe(3e12)
	within(t, "p50", h.Quantile(0.5), 1)
	if got := h.Quantile(0.9); got != 3e12 {
		t.Fatalf("p90 = %g, want the max 3e12 (both land in the open bucket)", got)
	}
	b := h.Buckets()
	if last := b[len(b)-1]; last.High != 3e12 || last.Count != 2 {
		t.Fatalf("open bucket = %+v, want High clamped to the max and Count 2", last)
	}
}

// TestHistogramMessagesPerEpoch is a sensornet_messages_per_epoch case:
// 95 epochs at 120 messages and 5 at 4 000. A factor-of-two layout whose
// last bucket ends near 34 reads p50 = 2 060 here, because everything
// above shares one overflow bucket interpolated from min to max.
func TestHistogramMessagesPerEpoch(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 95; i++ {
		h.Observe(120)
	}
	for i := 0; i < 5; i++ {
		h.Observe(4000)
	}
	within(t, "p50", h.Quantile(0.5), 120)
	within(t, "p95", h.Quantile(0.95), 120)
	if got := h.Quantile(0.99); got != 4000 {
		t.Fatalf("p99 = %g, want 4000", got)
	}
}

// TestQuantileClampsOutOfRangeQ: q < 0 answers the first rank, q > 1
// the exact max.
func TestQuantileClampsOutOfRangeQ(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	within(t, "q<0", h.Quantile(-0.5), 0.001)
	if got := h.Quantile(2); got != h.Max() {
		t.Fatalf("q>1 = %g, want exact max %g", got, h.Max())
	}
}

// TestHistogramExemplars checks that tail percentiles answer with a
// concrete TraceID no faster than the percentile itself: the p99
// exemplar must come from the p99 bucket or the slower tail.
func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	const fastTrace, slowTrace, maxTrace = 0x111, 0x222, 0x333
	for i := 0; i < 990; i++ {
		h.ObserveTraced(0.001, fastTrace)
	}
	for i := 0; i < 9; i++ {
		h.ObserveTraced(0.080, slowTrace)
	}
	h.ObserveTraced(0.500, maxTrace)

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
	u.Observe(0.001)
	if u.Exemplar(0.99) != 0 || u.MaxExemplar() != 0 {
		t.Fatal("untraced histogram produced an exemplar")
	}
	// The exported buckets carry the exemplars.
	b := h.Buckets()
	if len(b) != 3 || b[2].Trace != maxTrace || b[2].High != 0.5 || b[0].Count != 990 {
		t.Fatalf("buckets = %+v, want 3 with the max trace last", b)
	}
}

// TestHistogramExemplarNeverFaster floods the fast buckets with traced
// requests and leaves the slow tail untraced: the tail exemplar must
// fall back to a slower trace, never a fast bucket's.
func TestHistogramExemplarNeverFaster(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 999; i++ {
		h.ObserveTraced(0.001, 0xfa57)
	}
	h.ObserveTraced(1, 0x510)
	if got := h.Exemplar(0.9999); got != 0x510 {
		t.Fatalf("tail exemplar = %#x, want the slow trace 0x510", got)
	}
	h.Observe(2) // an untraced max
	if got := h.Exemplar(0.9999); got != 0 {
		t.Fatalf("exemplar above the last traced bucket = %#x, want 0", got)
	}
}

// TestHistogramSnapshotConcurrent races traced writers against registry
// snapshots: every snapshot is internally ordered and Count never goes
// backwards.
func TestHistogramSnapshotConcurrent(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ObserveTraced(rng.ExpFloat64()*1e-3, uint64(g+1))
			}
		}(g)
	}
	var last uint64
	for i := 0; i < 500 || last < 10_000; i++ {
		s := reg.Snapshot().Histograms["lat_seconds"]
		if s.Count < last {
			t.Fatalf("snapshot %d: count went back %d -> %d", i, last, s.Count)
		}
		last = s.Count
		if s.Count > 0 && !(s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
			t.Fatalf("snapshot %d out of order: %+v", i, s)
		}
	}
}

// TestHistogramFootprint: counters come an octave at a time, so a
// histogram spanning 10 octaves holds ≤ 12 KB, not the whole window.
func TestHistogramFootprint(t *testing.T) {
	const hists = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	hs := make([]*Histogram, hists)
	for i := range hs {
		hs[i] = NewHistogram()
		for j := 0; j < 10_000; j++ {
			hs[i].Observe(math.Ldexp(1+float64(j%64)/64, -20+j/64%10))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / hists
	runtime.KeepAlive(hs)
	if got := len(hs[0].Buckets()); got != 640 {
		t.Fatalf("%d non-empty buckets, want 640 across 10 octaves", got)
	}
	t.Logf("a 10-octave histogram retains %d B", per)
	if per > 12<<10 {
		t.Fatalf("a 10-octave histogram retains %d B, budget 12 KB", per)
	}
}

// TestHistogramHotPathAllocs pins the hot methods at zero allocations
// once the octaves they touch exist.
func TestHistogramHotPathAllocs(t *testing.T) {
	h := NewHistogram()
	h.ObserveTraced(0.25, 1)
	for name, fn := range map[string]func(){
		"Observe":       func() { h.Observe(0.25) },
		"ObserveTraced": func() { h.ObserveTraced(0.25, 9) },
		"Quantile":      func() { _ = h.Quantile(0.99) },
	} {
		if got := testing.AllocsPerRun(200, fn); got != 0 {
			t.Fatalf("%s allocates %v times, want 0", name, got)
		}
	}
}
