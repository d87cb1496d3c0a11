package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceKNN is the k-NN distance pass as it stood before the
// standardised rows were cached: refit when dirty, then standardise the
// query and every training row afresh, and sort. Kept as the oracle for
// TestKNNEqualsReference.
type referenceKNN struct {
	X      [][]float64
	scaler *Scaler
	dirty  bool
}

type referenceNeighbour struct {
	dist float64
	row  int
}

func (r *referenceKNN) add(x []float64) {
	r.X = append(r.X, append([]float64(nil), x...))
	r.dirty = true
}

func (r *referenceKNN) neighbours(x []float64) []referenceNeighbour {
	if r.dirty {
		if s, err := FitScaler(r.X); err == nil {
			r.scaler = s
		}
		r.dirty = false
	}
	q := x
	if r.scaler != nil {
		q = r.scaler.Transform(x)
	}
	ns := make([]referenceNeighbour, 0, len(r.X))
	for i, row := range r.X {
		rr := row
		if r.scaler != nil {
			rr = r.scaler.Transform(row)
		}
		d := 0.0
		for j := range q {
			if j < len(rr) {
				diff := q[j] - rr[j]
				d += diff * diff
			}
		}
		ns = append(ns, referenceNeighbour{dist: d, row: i})
	}
	sort.Slice(ns, func(a, b int) bool { return ns[a].dist < ns[b].dist })
	return ns
}

func referenceRegress(r *referenceKNN, ys []float64, k int, x []float64) (float64, bool) {
	if len(r.X) == 0 {
		return 0, false
	}
	ns := r.neighbours(x)
	if k > len(ns) {
		k = len(ns)
	}
	num, den := 0.0, 0.0
	for _, n := range ns[:k] {
		w := 1.0 / (1e-9 + n.dist)
		num += w * ys[n.row]
		den += w
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

func referenceClassify(r *referenceKNN, ys []int, k int, x []float64) (int, bool) {
	if len(r.X) == 0 {
		return 0, false
	}
	ns := r.neighbours(x)
	if k > len(ns) {
		k = len(ns)
	}
	votes := map[int]float64{}
	for _, n := range ns[:k] {
		votes[ys[n.row]] += 1.0 / (1e-9 + n.dist)
	}
	best, bestV := 0, math.Inf(-1)
	for y, v := range votes {
		if v > bestV || (v == bestV && y < best) {
			best, bestV = y, v
		}
	}
	return best, true
}

// TestKNNEqualsReference interleaves adds and predictions at random and
// requires == answers from the cached-rows implementation and the
// reference. Feature vectors are drawn from a small pool, as the decision
// maker's are (many observations share one vector), so most queries have
// ties among equal distances; one feature is constant (Std 0 -> 1).
func TestKNNEqualsReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]float64, 6+rng.Intn(10))
		for i := range pool {
			pool[i] = []float64{float64(rng.Intn(4)), rng.Float64() * 100, 7, float64(rng.Intn(3)) * 1e6}
		}
		draw := func() []float64 {
			if rng.Intn(5) == 0 {
				return []float64{rng.Float64() * 4, rng.Float64() * 100, 7, rng.Float64() * 3e6}
			}
			return pool[rng.Intn(len(pool))]
		}
		k := 1 + rng.Intn(5)
		reg, cls := NewKNNRegressor(k), NewKNNClassifier(k)
		var refReg, refCls referenceKNN
		var regY []float64
		var clsY []int
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0:
				x, y := draw(), rng.NormFloat64()
				reg.Add(x, y)
				refReg.add(x)
				regY = append(regY, y)
			case 1:
				x, y := draw(), rng.Intn(4)
				cls.Add(x, y)
				refCls.add(x)
				clsY = append(clsY, y)
			default:
				x := draw()
				got, err := reg.Predict(x)
				want, ok := referenceRegress(&refReg, regY, k, x)
				if (err == nil) != ok || got != want {
					t.Fatalf("seed %d step %d: regress(%v) = %v, %v; reference %v, %v", seed, step, x, got, err, want, ok)
				}
				gotC, err := cls.Predict(x)
				wantC, ok := referenceClassify(&refCls, clsY, k, x)
				if (err == nil) != ok || gotC != wantC {
					t.Fatalf("seed %d step %d: classify(%v) = %v, %v; reference %v, %v", seed, step, x, gotC, err, wantC, ok)
				}
			}
		}
	}
}
