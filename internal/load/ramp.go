package load

import (
	"fmt"
	"time"

	"pervasivegrid/internal/obs"
)

// Step-ramp throughput search: run fixed-rate open-loop steps at
// increasing offered rates until a step fails its sustain criteria; the
// ceiling is the highest rate that sustained. Open-loop steps make this
// honest — an overloaded step shows up as queueing latency and errors,
// not as the generator politely slowing down.

// RampOptions shapes the search.
type RampOptions struct {
	// Start is the first step's offered rate in req/s (required).
	Start float64
	// Factor multiplies the rate between steps (default 2; must be >1).
	// A geometric ramp reaches a ceiling in O(log) steps and the final
	// bracket [ceiling, ceiling*Factor) bounds the answer.
	Factor float64
	// MaxRate stops the search (default 64x Start).
	MaxRate float64
	// StepDuration is each step's measured span (default 5s).
	StepDuration time.Duration
	// StepWarmup is excluded from each step's histogram (default 500ms).
	StepWarmup time.Duration
	// SustainFraction is the minimum achieved/offered throughput for a
	// step to count as sustained (default 0.9).
	SustainFraction float64
	// MaxErrorRate fails a step when exceeded (default 0.01).
	MaxErrorRate float64
	// Generator knobs shared by every step.
	Workers int
	Clock   obs.Clock
}

// StepResult summarises one ramp step.
type StepResult struct {
	Rate       float64       `json:"rateRPS"`
	Achieved   float64       `json:"achievedRPS"`
	ErrorRate  float64       `json:"errorRate"`
	P50        time.Duration `json:"p50Ns"`
	P99        time.Duration `json:"p99Ns"`
	P999       time.Duration `json:"p999Ns"`
	Sustained  bool          `json:"sustained"`
	FailReason string        `json:"failReason,omitempty"`
}

// RampResult is the search outcome.
type RampResult struct {
	// Steps lists every step run, in rate order.
	Steps []StepResult
	// Ceiling is the highest sustained offered rate (0 when even the
	// first step failed).
	Ceiling float64
	// Saturated reports whether the search actually found a failing step
	// (false means it ran out of MaxRate headroom still sustaining).
	Saturated bool
}

// Ramp runs the search, driving do exactly like Run does per step.
func Ramp(opts RampOptions, do func(i int) error) (*RampResult, error) {
	if opts.Start <= 0 {
		return nil, fmt.Errorf("load: ramp start rate must be positive, got %g", opts.Start)
	}
	if opts.Factor <= 1 {
		opts.Factor = 2
	}
	if opts.MaxRate <= 0 {
		opts.MaxRate = opts.Start * 64
	}
	if opts.StepDuration <= 0 {
		opts.StepDuration = 5 * time.Second
	}
	if opts.StepWarmup < 0 {
		opts.StepWarmup = 0
	} else if opts.StepWarmup == 0 {
		opts.StepWarmup = 500 * time.Millisecond
	}
	if opts.SustainFraction <= 0 || opts.SustainFraction > 1 {
		opts.SustainFraction = 0.9
	}
	if opts.MaxErrorRate <= 0 {
		opts.MaxErrorRate = 0.01
	}

	out := &RampResult{}
	for rate := opts.Start; rate <= opts.MaxRate; rate *= opts.Factor {
		genOpts := Options{
			Rate:     rate,
			Duration: opts.StepDuration,
			Warmup:   opts.StepWarmup,
			Workers:  opts.Workers,
		}
		if opts.Clock != nil {
			genOpts.Clock = opts.Clock
		}
		res, err := Run(genOpts, do)
		if err != nil {
			return nil, err
		}
		step := StepResult{
			Rate:      rate,
			Achieved:  res.Throughput,
			ErrorRate: res.ErrorRate(),
			P50:       seconds(res.Hist.Quantile(0.50)),
			P99:       seconds(res.Hist.Quantile(0.99)),
			P999:      seconds(res.Hist.Quantile(0.999)),
			Sustained: true,
		}
		switch {
		case step.Achieved < rate*opts.SustainFraction:
			step.Sustained = false
			step.FailReason = fmt.Sprintf("achieved %.0f/s below %.0f%% of offered %.0f/s",
				step.Achieved, opts.SustainFraction*100, rate)
		case step.ErrorRate > opts.MaxErrorRate:
			step.Sustained = false
			step.FailReason = fmt.Sprintf("error rate %.2f%% above %.2f%%",
				step.ErrorRate*100, opts.MaxErrorRate*100)
		}
		out.Steps = append(out.Steps, step)
		if !step.Sustained {
			out.Saturated = true
			break
		}
		out.Ceiling = rate
	}
	return out, nil
}

// seconds converts a histogram reading to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
