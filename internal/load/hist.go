// Package load is the city-scale load harness: an open-loop,
// coordinated-omission-safe traffic generator (latency is measured from
// each request's *scheduled* send time, never from when a stalled worker
// finally got to send it), HDR-style latency histograms with p50/p99/p999,
// a step-ramp search for the sustained-throughput ceiling, and the two
// flagship disaster scenarios (sensor-storm, flood evacuation) that
// saturate the overload and recovery machinery the runtime grew in
// earlier PRs. Results serialize to JSON so pgridbench -compare can gate
// regressions on tail latency, not just ns/op.
package load

import (
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram: values bucket
// by octave with 64 linear sub-buckets per octave, bounding relative
// error to ~1.6% while keeping the whole structure a few KB. Durations
// are recorded in nanoseconds. The zero value is not usable; construct
// with NewHistogram. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	counts []int64
	// traces holds one exemplar TraceID per bucket (the last recorded;
	// lazily allocated the first time a traced value arrives), so a
	// percentile can be answered with a *concrete request* to go look
	// at: "p999 is 80ms — here is a trace that took that long".
	traces   []uint64
	total    int64
	max      int64
	maxTrace uint64
	sum      int64
}

// subBuckets is the linear resolution per octave (power of two).
const subBuckets = 64

// maxBucketIndex covers every int64 nanosecond value.
var maxBucketIndex = bucketIndex(1<<63 - 1)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, maxBucketIndex+1)}
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 7 // u>>exp lands in [64,128)
	return subBuckets + exp*subBuckets + int(u>>uint(exp)) - subBuckets
}

// bucketHigh returns the largest value a bucket holds — quantiles report
// this bound, so "p99 = X" reads as "99% of requests finished in ≤ X".
func bucketHigh(idx int) int64 {
	if idx < subBuckets {
		return int64(idx)
	}
	exp := (idx - subBuckets) / subBuckets
	m := uint64((idx-subBuckets)%subBuckets + subBuckets)
	return int64(m<<uint(exp) + 1<<uint(exp) - 1)
}

// Record adds one latency observation. Negative durations clamp to zero
// (a scheduled time in the future can produce them when a request
// completes before its own schedule slot under a fake clock).
func (h *Histogram) Record(d time.Duration) { h.RecordTraced(d, 0) }

// RecordTraced adds one latency observation carrying the TraceID of the
// request that produced it (0 = untraced). The trace becomes the
// bucket's exemplar: Exemplar(q) later answers "which request was that
// slow?" for any percentile.
func (h *Histogram) RecordTraced(d time.Duration, trace uint64) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	idx := bucketIndex(v)
	h.counts[idx]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
		h.maxTrace = trace
	}
	if trace != 0 {
		if h.traces == nil {
			h.traces = make([]uint64, len(h.counts))
		}
		h.traces[idx] = trace
	}
	h.mu.Unlock()
}

// Max reports the largest recorded value.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return time.Duration(h.max)
}

// Mean reports the average recorded value.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	return time.Duration(h.sum / h.total)
}

// Quantile reports the latency bound below which fraction q of the
// recorded values fall (q in [0,1]; q=0.99 is p99). An empty histogram
// reports 0. The exact recorded max is returned for the top bucket so
// p100 never overstates.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return 0
	}
	idx := h.quantileIdxLocked(q)
	if idx < 0 {
		return time.Duration(h.max)
	}
	hi := bucketHigh(idx)
	if hi > h.max {
		hi = h.max
	}
	return time.Duration(hi)
}

// quantileIdxLocked finds the bucket the q-quantile lands in (-1 when
// the cumulative walk falls through, i.e. q points past the last
// occupied bucket). Caller holds h.mu.
func (h *Histogram) quantileIdxLocked(q float64) int {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return i
		}
	}
	return -1
}

// Exemplar returns the TraceID of a request observed at (or just above)
// the q-quantile latency, or 0 when no traced request is nearby. The
// walk prefers the quantile's own bucket, then the slower tail — an
// exemplar for p999 should never be a *faster* request than the p999.
func (h *Histogram) Exemplar(q float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 || h.traces == nil {
		return 0
	}
	idx := h.quantileIdxLocked(q)
	if idx < 0 {
		return h.maxTrace
	}
	for i := idx; i < len(h.traces); i++ {
		if h.traces[i] != 0 {
			return h.traces[i]
		}
	}
	return h.maxTrace
}

// MaxExemplar returns the TraceID of the slowest recorded request
// (0 when the max was untraced).
func (h *Histogram) MaxExemplar() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.maxTrace
}

// HistBucket is one non-empty bucket in a serialized histogram.
type HistBucket struct {
	// High is the inclusive upper latency bound of the bucket in
	// nanoseconds.
	High int64 `json:"highNs"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
	// Trace is the bucket's exemplar TraceID in hex (absent when no
	// traced request landed here).
	Trace string `json:"trace,omitempty"`
}

// Snapshot exports the non-empty buckets, oldest bound first.
func (h *Histogram) Snapshot() []HistBucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []HistBucket
	for i, c := range h.counts {
		if c > 0 {
			b := HistBucket{High: bucketHigh(i), Count: c}
			if h.traces != nil && h.traces[i] != 0 {
				b.Trace = fmt.Sprintf("%016x", h.traces[i])
			}
			out = append(out, b)
		}
	}
	return out
}
