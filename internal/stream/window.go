// Package stream provides data-stream processing for the pervasive grid:
// windowed and non-blocking operators over sensor streams (the role Fjords
// plays in the related work) and the paper's worked stream-mining example —
// ensembles of decision trees whose Walsh–Fourier spectra are truncated to
// their dominant components and combined into a single classifier, so that
// distributed data sources ship compact spectra instead of raw data.
package stream

import (
	"fmt"
	"math"

	"pervasivegrid/internal/sensornet"
)

// Element is one stream item: a timestamped value from a source.
type Element struct {
	Source int
	T      float64
	V      float64
}

// WindowResult is the aggregate of one closed window.
type WindowResult struct {
	// Start and End bound the window in stream time: [Start, End).
	Start, End float64
	// Agg holds the decomposable aggregate state of the window.
	Agg sensornet.Partial
}

// TumblingWindow groups elements into fixed, non-overlapping time windows
// and emits one aggregate per closed window. Elements must arrive in
// non-decreasing time order per Push; late elements are counted and
// dropped.
type TumblingWindow struct {
	Size float64

	start  float64
	opened bool
	cur    sensornet.Partial
	late   int
	out    []WindowResult
}

// NewTumblingWindow creates a window of the given size in stream-time
// units.
//
//lint:ignore deadcode S13 names stream windows; no query path runs one yet
func NewTumblingWindow(size float64) (*TumblingWindow, error) {
	if size <= 0 {
		return nil, fmt.Errorf("stream: window size must be positive, got %v", size)
	}
	return &TumblingWindow{Size: size}, nil
}

// Push feeds one element; any windows that close as time advances become
// available from Results.
func (w *TumblingWindow) Push(e Element) {
	if !w.opened {
		w.start = math.Floor(e.T/w.Size) * w.Size
		w.opened = true
	}
	if e.T < w.start {
		w.late++
		return
	}
	for e.T >= w.start+w.Size {
		if w.cur.Count > 0 {
			w.out = append(w.out, WindowResult{Start: w.start, End: w.start + w.Size, Agg: w.cur})
			w.cur = sensornet.Partial{}
		}
		w.start += w.Size
	}
	w.cur.Add(e.V)
}

// Flush force-closes the open window (used at stream end).
func (w *TumblingWindow) Flush() {
	if w.opened && w.cur.Count > 0 {
		w.out = append(w.out, WindowResult{Start: w.start, End: w.start + w.Size, Agg: w.cur})
		w.cur = sensornet.Partial{}
	}
}

// Results drains the closed windows produced so far.
func (w *TumblingWindow) Results() []WindowResult {
	out := w.out
	w.out = nil
	return out
}

// Late reports elements dropped for arriving before the current window.
func (w *TumblingWindow) Late() int { return w.late }

// SlidingStats maintains count/mean/min/max over the most recent N
// elements — the bounded-memory per-sensor summary a handheld keeps.
type SlidingStats struct {
	N   int
	buf []float64
	pos int
	n   int
}

// NewSlidingStats creates a sliding window over the last n elements.
func NewSlidingStats(n int) (*SlidingStats, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: sliding window needs n > 0, got %d", n)
	}
	return &SlidingStats{N: n, buf: make([]float64, n)}, nil
}

// Push adds a value, evicting the oldest when full.
func (s *SlidingStats) Push(v float64) {
	s.buf[s.pos] = v
	s.pos = (s.pos + 1) % s.N
	if s.n < s.N {
		s.n++
	}
}

// Snapshot returns the current window aggregate.
func (s *SlidingStats) Snapshot() sensornet.Partial {
	var p sensornet.Partial
	for i := 0; i < s.n; i++ {
		p.Add(s.buf[i])
	}
	return p
}

// Merge is the Fjords-style non-blocking merge: it polls any number of
// push-based input queues and emits whatever is available without blocking
// on quiet sources. Each call drains at most budget elements (0 = all
// currently queued).
type Merge struct {
	inputs []chan Element
}

// NewMerge builds a merge over n input queues of the given buffer depth.
//
//lint:ignore deadcode S13 names non-blocking Fjords-like operators; no query path runs one yet
func NewMerge(n, depth int) (*Merge, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: merge needs inputs, got %d", n)
	}
	if depth <= 0 {
		depth = 16
	}
	m := &Merge{inputs: make([]chan Element, n)}
	for i := range m.inputs {
		m.inputs[i] = make(chan Element, depth)
	}
	return m, nil
}

// Offer pushes an element into input i without blocking; it reports false
// when the queue is full (the sensor-proxy backpressure signal).
func (m *Merge) Offer(i int, e Element) bool {
	if i < 0 || i >= len(m.inputs) {
		return false
	}
	select {
	case m.inputs[i] <- e:
		return true
	default:
		return false
	}
}

// Poll gathers available elements round-robin without blocking. budget 0
// drains everything currently queued.
func (m *Merge) Poll(budget int) []Element {
	var out []Element
	for {
		progress := false
		for _, ch := range m.inputs {
			select {
			case e := <-ch:
				out = append(out, e)
				progress = true
				if budget > 0 && len(out) >= budget {
					return out
				}
			default:
			}
		}
		if !progress {
			return out
		}
	}
}
