package obs

import "math"

// Trace sampling. At city-scale rates an unsampled tracer either evicts
// everything silently or taxes every envelope on the hot path. The
// sampler makes the trade explicit: a deterministic head decision per
// TraceID (every node keeps or drops the *same* traces, so cross-node
// stitching still works without coordination), plus a tail-keep escape
// hatch — error, shed, breaker-open, and p99-slow traces are always
// retained, promoted out of a short recent-span buffer after the fact.
// The sampled/dropped ledger means loss is never silent: the counters
// say exactly how many spans each decision cost.

// Sampler is a deterministic head sampler keyed on TraceID. The zero
// rate (SamplerOff) disables span capture entirely — not even the
// tail-keep buffer is fed — which is the baseline the overhead
// benchmark compares against. A nil *Sampler means "no sampling":
// every span is captured (the pre-sampling v1 behavior).
type Sampler struct {
	rate      float64
	threshold uint64
}

// NewSampler returns a sampler keeping approximately rate (clamped to
// [0,1]) of all traces. rate >= 1 keeps everything; rate <= 0 is
// equivalent to SamplerOff.
func NewSampler(rate float64) *Sampler {
	if rate < 0 || math.IsNaN(rate) {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	s := &Sampler{rate: rate}
	if rate >= 1 {
		s.threshold = math.MaxUint64
	} else {
		s.threshold = uint64(rate * float64(math.MaxUint64))
	}
	return s
}

// SamplerOff captures nothing: the cheapest possible Record path, used
// as the overhead-benchmark baseline and as the "black out tracing"
// switch. Tail-keep does not apply — off is off.
var SamplerOff = NewSampler(0)

// Off reports whether the sampler blacks out capture entirely.
func (s *Sampler) Off() bool { return s != nil && s.threshold == 0 }

// Sampled reports the deterministic head decision for a trace: the
// TraceID is mixed through splitmix64 and compared against the rate
// threshold, so the same trace gets the same verdict on every node and
// on every hop. A nil sampler keeps everything. It sits on every
// traced Send, so it must stay allocation-free.
//
//lint:hot budget=0
func (s *Sampler) Sampled(trace uint64) bool {
	if s == nil {
		return true
	}
	if s.threshold == math.MaxUint64 {
		return true
	}
	if s.threshold == 0 {
		return false
	}
	return splitmix64(trace) < s.threshold
}

// splitmix64 is the finalizer of the splitmix64 PRNG: a cheap, strong
// bit mixer. NewTraceID hands out sequential low bits, so hashing is
// what makes "hash < threshold" behave like a uniform coin flip.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
