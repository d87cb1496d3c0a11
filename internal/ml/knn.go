package ml

import (
	"cmp"
	"encoding/binary"
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
	scaler Scaler
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

// distances returns every training row's squared distance to x in
// standardised space, in row order, with the scaler fitted to rows weighted
// by count (see Scaler.fit). rows must not be empty. The result is
// overwritten by the next call.
func (ix *knnIndex) distances(rows [][]float64, count []int, x []float64) []neighbour {
	if ix.dirty {
		ix.scaler.fit(rows, count) // fails only on no rows; callers have checked
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
	return ix.ns
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
	ns := c.index.distances(c.data.X, nil, x)
	// Ties keep the order sort.Slice gives them; E5's votes are built on it.
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
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
// calibrate cost estimates against measured executions. It keeps one row
// per distinct feature vector, with the count of samples it stands for and
// their running mean target, so its size follows the distinct vectors seen.
type KNNRegressor struct {
	K int

	x     [][]float64
	y     []float64
	count []int
	rowOf map[string]int // keyed by the vector's float64 bits
	key   []byte
	n     int
	index knnIndex
}

// NewKNNRegressor builds an empty regressor; k defaults to 3.
func NewKNNRegressor(k int) *KNNRegressor {
	if k <= 0 {
		k = 3
	}
	return &KNNRegressor{K: k, rowOf: map[string]int{}}
}

// Add inserts a training sample. y += (t-y)/c stays exactly t while every
// target a vector is given is t.
func (r *KNNRegressor) Add(x []float64, y float64) {
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return
	}
	r.key = r.key[:0]
	for _, v := range x {
		r.key = binary.LittleEndian.AppendUint64(r.key, math.Float64bits(v))
	}
	if i, ok := r.rowOf[string(r.key)]; ok {
		r.count[i]++
		r.y[i] += (y - r.y[i]) / float64(r.count[i])
	} else {
		r.rowOf[string(r.key)] = len(r.x)
		r.x, r.y, r.count = append(r.x, slices.Clone(x)), append(r.y, y), append(r.count, 1)
	}
	r.n++
	r.index.dirty = true // every count moves the weighted scaler
}

// Len reports how many samples have been added.
func (r *KNNRegressor) Len() int { return r.n }

// Predict estimates the target at x; it errors on an empty training set.
// It gives what one row per sample would: the scaler weighs rows by count,
// and a row fills min(count, slots left) of the k slots one term at a time.
//
// Budget 10: refit scratch that grows only with the rows, the comparator, the error.
//
//lint:hot budget=10
func (r *KNNRegressor) Predict(x []float64) (float64, error) {
	if r.n == 0 {
		return 0, ErrEmpty
	}
	ns := r.index.distances(r.x, r.count, x)
	slices.SortFunc(ns, func(a, b neighbour) int { // ties in the order rows were added
		return cmp.Or(cmp.Compare(a.dist, b.dist), a.row-b.row)
	})
	num, den, left := 0.0, 0.0, r.K
	for _, n := range ns {
		w := 1.0 / (1e-9 + n.dist)
		for c := min(r.count[n.row], left); c > 0; c-- {
			num += w * r.y[n.row]
			den += w
			left--
		}
	}
	if den == 0 {
		return 0, fmt.Errorf("ml: degenerate weights in knn regression")
	}
	return num / den, nil
}
