package stream

import (
	"fmt"

	"pervasivegrid/internal/sensornet"
)

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
