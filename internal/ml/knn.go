package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// knnIndex caches what a nearest-neighbour query needs beyond the raw
// training rows: the scaler fitted to them, their standardised copies
// (rebuilt together with the scaler by the first query after an Add, not
// once per query), and the scratch one query uses.
type knnIndex struct {
	dirty  bool
	scaler *Scaler
	// std holds the rows standardised by scaler, all backed by buf.
	std [][]float64
	buf []float64
	q   []float64
	ns  []neighbour
}

type neighbour struct {
	dist float64
	row  int // index of the training row
}

// nearest returns every training row's squared distance to x in
// standardised space, nearest first; rows at equal distance keep the order
// sort.Slice gives them. rows must not be empty. The result is overwritten
// by the next call.
func (ix *knnIndex) nearest(rows [][]float64, x []float64) []neighbour {
	if ix.dirty {
		ix.scaler, _ = FitScaler(rows) // fails only on no rows; callers have checked
		ix.dirty = false
		total := 0
		for _, row := range rows {
			total += len(row)
		}
		ix.buf = slices.Grow(ix.buf[:0], total)
		ix.std = ix.std[:0]
		for _, row := range rows {
			start := len(ix.buf)
			ix.buf = ix.buf[:start+len(row)]
			ix.std = append(ix.std, ix.scaler.transformInto(ix.buf[start:], row))
		}
	}
	if cap(ix.q) < len(x) {
		ix.q = make([]float64, len(x))
	}
	q := ix.scaler.transformInto(ix.q[:len(x)], x)
	ix.ns = ix.ns[:0]
	for i, r := range ix.std {
		d := 0.0
		for j := range q {
			if j < len(r) {
				diff := q[j] - r[j]
				d += diff * diff
			}
		}
		ix.ns = append(ix.ns, neighbour{dist: d, row: i})
	}
	ns := ix.ns
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
	return ns
}

// KNNClassifier is a lazy k-nearest-neighbour classifier over standardised
// features. It supports online growth (Add), which is what the paper's
// adaptive decision maker needs: every completed query execution becomes a
// new training point.
type KNNClassifier struct {
	K int

	data  Dataset
	index knnIndex
}

// NewKNNClassifier builds an empty classifier; k defaults to 3 when
// non-positive.
func NewKNNClassifier(k int) *KNNClassifier {
	if k <= 0 {
		k = 3
	}
	return &KNNClassifier{K: k}
}

// Add inserts a training sample.
func (c *KNNClassifier) Add(x []float64, y int) {
	c.data.Add(x, y)
	c.index.dirty = true
}

// Len reports the training-set size.
func (c *KNNClassifier) Len() int { return c.data.Len() }

// Predict returns the majority label among the k nearest training samples.
// It returns an error when no samples have been added.
func (c *KNNClassifier) Predict(x []float64) (int, error) {
	if c.data.Len() == 0 {
		return 0, ErrEmpty
	}
	ns := c.index.nearest(c.data.X, x)
	k := c.K
	if k > len(ns) {
		k = len(ns)
	}
	votes := map[int]float64{}
	for _, n := range ns[:k] {
		w := 1.0 / (1e-9 + n.dist) // distance-weighted vote
		votes[c.data.Y[n.row]] += w
	}
	best, bestV := 0, math.Inf(-1)
	for y, v := range votes {
		if v > bestV || (v == bestV && y < best) {
			best, bestV = y, v
		}
	}
	return best, nil
}

// KNNRegressor predicts a continuous target as the distance-weighted mean
// of the k nearest training targets. The decision maker uses it to
// calibrate cost estimates against measured executions.
type KNNRegressor struct {
	K int

	X     [][]float64
	Y     []float64
	index knnIndex
}

// NewKNNRegressor builds an empty regressor; k defaults to 3.
func NewKNNRegressor(k int) *KNNRegressor {
	if k <= 0 {
		k = 3
	}
	return &KNNRegressor{K: k}
}

// Add inserts a training sample.
func (r *KNNRegressor) Add(x []float64, y float64) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	r.X = append(r.X, append([]float64(nil), x...))
	r.Y = append(r.Y, y)
	r.index.dirty = true
}

// Len reports the training-set size.
func (r *KNNRegressor) Len() int { return len(r.X) }

// Predict estimates the target at x; it errors on an empty training set.
func (r *KNNRegressor) Predict(x []float64) (float64, error) {
	if len(r.X) == 0 {
		return 0, ErrEmpty
	}
	ns := r.index.nearest(r.X, x)
	k := r.K
	if k > len(ns) {
		k = len(ns)
	}
	num, den := 0.0, 0.0
	for _, n := range ns[:k] {
		w := 1.0 / (1e-9 + n.dist)
		num += w * r.Y[n.row]
		den += w
	}
	if den == 0 {
		return 0, fmt.Errorf("ml: degenerate weights in knn regression")
	}
	return num / den, nil
}
