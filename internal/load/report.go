package load

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"pervasivegrid/internal/obs"
)

// ReportSchema identifies a pgridload JSON report.
const ReportSchema = "pgridload/v1"

// Percentiles is the latency summary of one run, in milliseconds for
// human eyes; the histogram carries the full nanosecond resolution.
type Percentiles struct {
	P50  float64 `json:"p50Ms"`
	P90  float64 `json:"p90Ms"`
	P99  float64 `json:"p99Ms"`
	P999 float64 `json:"p999Ms"`
	Max  float64 `json:"maxMs"`
	Mean float64 `json:"meanMs"`
}

// Report is the serialized outcome of a pgridload run.
type Report struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Target   string `json:"target,omitempty"`

	RateRPS    float64      `json:"rateRPS"`
	Offered    int          `json:"offered"`
	Completed  int          `json:"completed"`
	Errors     int          `json:"errors"`
	ErrorRate  float64      `json:"errorRate"`
	ElapsedSec float64      `json:"elapsedSec"`
	Throughput float64      `json:"throughputRPS"`
	Latency    Percentiles  `json:"latency"`
	NaiveP99Ms float64      `json:"naiveP99Ms"` // the closed-loop lie, kept for contrast
	CeilingRPS float64      `json:"ceilingRPS,omitempty"`
	Saturated  bool         `json:"saturated,omitempty"`
	Steps      []StepResult `json:"steps,omitempty"`
	Histogram  []HistBucket `json:"histogram,omitempty"`
	Timeline   []Second     `json:"timeline,omitempty"`
	// Metrics carries scenario-specific measurements (priority delivery
	// rate, sheds, reconnects, lease churn, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Exemplars maps tail percentiles (p99, p999, max) to the hex
	// TraceID of a request observed at that latency — the handle that
	// turns "p999 spiked" into a dumpable causal timeline
	// (GET /trace?id=<exemplar> on the target node).
	Exemplars map[string]string `json:"exemplars,omitempty"`
	// PriorityDeadLetters names each dead letter counted in the
	// priorityDeadLetters metric, one line each (see priorityDeadLetters).
	PriorityDeadLetters []string `json:"priorityDeadLetters,omitempty"`
}

// HistBucket is one non-empty bucket in a serialized histogram.
type HistBucket struct {
	// High is the upper latency bound of the bucket in nanoseconds.
	High int64 `json:"highNs"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
	// Trace is the bucket's exemplar TraceID in hex (absent when no
	// traced request landed here).
	Trace string `json:"trace,omitempty"`
}

// histBuckets exports a latency histogram (in seconds) at the report's
// nanosecond resolution; sub-nanosecond buckets fold into one.
func histBuckets(h *obs.Histogram) []HistBucket {
	var out []HistBucket
	for _, b := range h.Buckets() {
		hb := HistBucket{High: int64(math.Ceil(b.High * 1e9)), Count: int64(b.Count)}
		if b.Trace != 0 {
			hb.Trace = traceHex(b.Trace)
		}
		if n := len(out); n > 0 && out[n-1].High == hb.High {
			out[n-1].Count += hb.Count
			if hb.Trace != "" {
				out[n-1].Trace = hb.Trace
			}
			continue
		}
		out = append(out, hb)
	}
	return out
}

func traceHex(t uint64) string { return fmt.Sprintf("%016x", t) }

// SummarizeHist fills a Percentiles from a latency histogram in seconds.
func SummarizeHist(h *obs.Histogram) Percentiles {
	return Percentiles{
		P50:  h.Quantile(0.50) * 1e3,
		P90:  h.Quantile(0.90) * 1e3,
		P99:  h.Quantile(0.99) * 1e3,
		P999: h.Quantile(0.999) * 1e3,
		Max:  h.Max() * 1e3,
		Mean: h.Mean() * 1e3,
	}
}

// NewReport folds a generator result into a serializable report.
func NewReport(scenario, target string, rate float64, res *Result) *Report {
	r := &Report{
		Schema:     ReportSchema,
		Scenario:   scenario,
		Target:     target,
		RateRPS:    rate,
		Offered:    res.Offered,
		Completed:  res.Completed,
		Errors:     res.Errors,
		ErrorRate:  res.ErrorRate(),
		ElapsedSec: res.Elapsed.Seconds(),
		Throughput: res.Throughput,
		Latency:    SummarizeHist(res.Hist),
		NaiveP99Ms: res.NaiveHist.Quantile(0.99) * 1e3,
		Histogram:  histBuckets(res.Hist),
		Timeline:   res.Timeline,
	}
	ex := map[string]string{}
	if t := res.Hist.Exemplar(0.99); t != 0 {
		ex["p99"] = traceHex(t)
	}
	if t := res.Hist.Exemplar(0.999); t != 0 {
		ex["p999"] = traceHex(t)
	}
	if t := res.Hist.MaxExemplar(); t != 0 {
		ex["max"] = traceHex(t)
	}
	if len(ex) > 0 {
		r.Exemplars = ex
	}
	return r
}

// AttachRamp folds a ceiling search into the report.
func (r *Report) AttachRamp(ramp *RampResult) {
	r.CeilingRPS = ramp.Ceiling
	r.Saturated = ramp.Saturated
	r.Steps = ramp.Steps
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
