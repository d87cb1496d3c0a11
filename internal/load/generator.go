// Package load is the city-scale load harness: an open-loop,
// coordinated-omission-safe traffic generator (latency is measured from
// each request's *scheduled* send time, never from when a stalled worker
// finally got to send it) recording into obs histograms, a step-ramp
// search for the sustained-throughput ceiling, and the two flagship
// disaster scenarios (sensor-storm, flood evacuation) that saturate the
// overload and recovery machinery. Results serialize to the pgridload/v1
// JSON report.
package load

import (
	"fmt"
	"sync"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Open-loop generation. A closed-loop client (send, wait, send again)
// slows down exactly when the system under test slows down, so its
// latency numbers silently drop the requests that *would* have been sent
// during a stall — the coordinated-omission trap. This generator is
// open-loop: request i has a fixed scheduled send time start + i/rate,
// the schedule never waits for the system, and latency is measured from
// the scheduled time. A worker stuck behind a stall therefore charges the
// whole queueing delay to every request that queued behind it, which is
// what a real user population would experience. The naive (send-time)
// measurement is recorded alongside so tests and docs can demonstrate
// exactly how much it under-reports.

// Options shapes one open-loop run.
type Options struct {
	// Rate is the offered arrival rate in requests per second (required).
	Rate float64
	// Duration bounds the schedule; Offered = floor(Rate * Duration).
	Duration time.Duration
	// Warmup excludes the first span of the schedule from the histograms
	// (connections warming, caches filling). Warmup requests still run.
	Warmup time.Duration
	// Workers is the sending pool size (default 32). The pool bounds
	// concurrency, not the schedule: when every worker is stuck, the
	// backlog queues and the queued time is measured.
	Workers int
	// Clock is the time source (default the wall clock). Tests inject
	// obs.FakeClock to run schedules without waiting.
	Clock obs.Clock
}

func (o Options) withDefaults() (Options, error) {
	if o.Rate <= 0 {
		return o, fmt.Errorf("load: rate must be positive, got %g", o.Rate)
	}
	if o.Duration <= 0 {
		return o, fmt.Errorf("load: duration must be positive, got %v", o.Duration)
	}
	if o.Workers <= 0 {
		o.Workers = 32
	}
	if o.Clock == nil {
		o.Clock = obs.Real
	}
	return o, nil
}

// Second is one second of the run's timeline, indexed from the schedule
// start. The chaos suite reads these to bound an error spike's duration
// and to compare pre-/post-recovery throughput.
type Second struct {
	// Offered counts requests scheduled into this second.
	Offered int `json:"offered"`
	// OK counts requests scheduled into this second that completed
	// without error (whenever they actually finished).
	OK int `json:"ok"`
	// Errors counts requests scheduled into this second that failed.
	Errors int `json:"errors"`
}

// Result is one open-loop run's measurement.
type Result struct {
	// Offered is the scheduled request count (rate x duration).
	Offered int
	// Completed counts requests that returned without error.
	Completed int
	// Errors counts failed requests.
	Errors int
	// Elapsed spans schedule start to last completion.
	Elapsed time.Duration
	// Throughput is completed requests per second of Elapsed.
	Throughput float64
	// Hist is the coordinated-omission-safe latency histogram in seconds
	// (completion minus *scheduled* send time), excluding warmup.
	Hist *obs.Histogram
	// NaiveHist measures the same requests from their actual send time —
	// the number a closed-loop harness would report. Kept only to
	// demonstrate the under-reporting; never gate on it.
	NaiveHist *obs.Histogram
	// Timeline buckets the run per scheduled second.
	Timeline []Second
}

// request is one scheduled slot handed to the worker pool.
type request struct {
	i         int
	scheduled time.Time
}

// Run drives do open-loop under opts. do receives the request index and
// returns the request's error; it must be safe for concurrent calls.
func Run(opts Options, do func(i int) error) (*Result, error) {
	return RunTraced(opts, func(i int) (uint64, error) { return 0, do(i) })
}

// RunTraced is Run for instrumented targets: do additionally returns
// the TraceID of the conversation it ran, which becomes the latency
// histogram's exemplar for that request's bucket — the report's p999
// then names a concrete trace to dump.
func RunTraced(opts Options, do func(i int) (uint64, error)) (*Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	offered := int(opts.Rate * opts.Duration.Seconds())
	if offered < 1 {
		offered = 1
	}
	clk := opts.Clock
	res := &Result{
		Offered:   offered,
		Hist:      obs.NewHistogram(),
		NaiveHist: obs.NewHistogram(),
		Timeline:  make([]Second, int(opts.Duration.Seconds())+1),
	}
	interval := time.Duration(float64(time.Second) / opts.Rate)
	start := clk.Now()

	// The queue holds the entire schedule, so the dispatcher can never be
	// blocked by slow workers — blocking the dispatcher would re-create
	// the coordinated omission this harness exists to avoid.
	queue := make(chan request, offered)

	var mu sync.Mutex // guards Timeline and the completion counters
	var lastDone time.Time
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		supervise.Spawn("load-worker", func() {
			defer wg.Done()
			for req := range queue {
				sendStart := clk.Now()
				trace, err := do(req.i)
				end := clk.Now()
				sec := int(req.scheduled.Sub(start) / time.Second)
				measured := req.scheduled.Sub(start) >= opts.Warmup
				mu.Lock()
				if end.After(lastDone) {
					lastDone = end
				}
				if sec >= 0 && sec < len(res.Timeline) {
					if err != nil {
						res.Timeline[sec].Errors++
					} else {
						res.Timeline[sec].OK++
					}
				}
				if err != nil {
					res.Errors++
				} else {
					res.Completed++
				}
				mu.Unlock()
				if measured && err == nil {
					res.Hist.ObserveTraced(end.Sub(req.scheduled).Seconds(), trace)
					res.NaiveHist.Observe(end.Sub(sendStart).Seconds())
				}
			}
		})
	}

	// Dispatch on schedule: sleep to each slot, never past it because a
	// worker is busy.
	for i := 0; i < offered; i++ {
		at := start.Add(time.Duration(i) * interval)
		if wait := at.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sec := int(at.Sub(start) / time.Second)
		if sec >= 0 && sec < len(res.Timeline) {
			mu.Lock()
			res.Timeline[sec].Offered++
			mu.Unlock()
		}
		queue <- request{i: i, scheduled: at}
	}
	close(queue)
	wg.Wait()

	res.Elapsed = lastDone.Sub(start)
	if res.Elapsed < opts.Duration {
		res.Elapsed = opts.Duration
	}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.Throughput = float64(res.Completed) / s
	}
	// Trim the trailing spill second when nothing landed in it.
	if n := len(res.Timeline); n > 0 && res.Timeline[n-1] == (Second{}) {
		res.Timeline = res.Timeline[:n-1]
	}
	return res, nil
}

// ErrorRate reports the failed fraction of offered load.
func (r *Result) ErrorRate() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Offered)
}
