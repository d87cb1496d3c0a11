// Package ml implements the "standard machine learning techniques" the
// paper applies to dynamic computation partitioning (a Pythia-style learned
// selector) and to stream mining: decision trees with numeric threshold
// splits, k-nearest-neighbour classification and regression, and small
// dataset utilities. Everything is from scratch on the standard library.
package ml

import (
	"errors"
	"fmt"
	"math"
)

// Dataset pairs feature vectors with integer class labels.
type Dataset struct {
	X [][]float64
	Y []int
}

// ErrEmpty indicates a training call with no samples.
var ErrEmpty = errors.New("ml: empty dataset")

// Validate checks shape invariants: equal lengths and rectangular features.
func (d Dataset) Validate() error {
	if len(d.X) == 0 {
		return ErrEmpty
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	w := len(d.X[0])
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has %d features, want %d", i, len(row), w)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d feature %d is not finite", i, j)
			}
		}
	}
	return nil
}

// Add appends one sample.
func (d *Dataset) Add(x []float64, y int) {
	d.X = append(d.X, append([]float64(nil), x...))
	d.Y = append(d.Y, y)
}

// Len reports the sample count.
func (d Dataset) Len() int { return len(d.X) }

// Scaler standardises features to zero mean and unit variance, protecting
// distance-based learners from dominant dimensions.
type Scaler struct {
	Mean, Std []float64
}

// fit sets s to the statistics of X, reusing s's slices, with row i counted
// count[i] times: the mean and deviation of the samples a multiset row
// stands for. A nil count weighs every row 1, which is exact.
func (s *Scaler) fit(X [][]float64, count []int) (*Scaler, error) {
	if len(X) == 0 {
		return nil, ErrEmpty
	}
	w := len(X[0])
	s.Mean = append(s.Mean[:0], make([]float64, w)...)
	s.Std = append(s.Std[:0], make([]float64, w)...)
	weight := func(i int) float64 {
		if count == nil {
			return 1
		}
		return float64(count[i])
	}
	n := 0.0
	for i, row := range X {
		for j, v := range row {
			s.Mean[j] += weight(i) * v
		}
		n += weight(i)
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += weight(i) * (d * d)
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// transformInto standardises x into dst, which must have x's length, and
// returns dst.
func (s *Scaler) transformInto(dst, x []float64) []float64 {
	for j, v := range x {
		if j < len(s.Mean) {
			dst[j] = (v - s.Mean[j]) / s.Std[j]
		} else {
			dst[j] = v
		}
	}
	return dst
}
