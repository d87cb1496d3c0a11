package ml

import (
	"fmt"
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

// fitScaler computes per-feature statistics with every row weighted 1.
func fitScaler(X [][]float64) (*Scaler, error) { return (&Scaler{}).fit(X, nil) }

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
		if s, err := fitScaler(r.X); err == nil {
			r.scaler = s
		}
		r.dirty = false
	}
	q := x
	if r.scaler != nil {
		q = r.scaler.transformInto(make([]float64, len(x)), x)
	}
	ns := make([]referenceNeighbour, 0, len(r.X))
	for i, row := range r.X {
		rr := row
		if r.scaler != nil {
			rr = r.scaler.transformInto(make([]float64, len(row)), row)
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

// unboundedRegressor is KNNRegressor as it stood before it became a
// multiset: one row per sample, the targets kept as added. Kept as the
// oracle for the regressor half of TestKNNEqualsReference.
type unboundedRegressor struct {
	rows referenceKNN
	y    []float64
}

func (u *unboundedRegressor) add(x []float64, y float64) {
	u.rows.add(x)
	u.y = append(u.y, y)
}

// meanTargets returns the oracle over the same samples with each vector's
// targets replaced by their mean.
func (u *unboundedRegressor) meanTargets() *unboundedRegressor {
	sum, n := map[string]float64{}, map[string]float64{}
	for i, x := range u.rows.X {
		k := fmt.Sprint(x)
		sum[k] += u.y[i]
		n[k]++
	}
	out := &unboundedRegressor{}
	for _, x := range u.rows.X {
		k := fmt.Sprint(x)
		out.add(x, sum[k]/n[k])
	}
	return out
}

func (u *unboundedRegressor) predict(k int, x []float64) (float64, bool) {
	return referenceRegress(&u.rows, u.y, k, x)
}

// TestKNNEqualsReference interleaves adds and predictions at random and
// compares each answer with an oracle. Feature vectors are drawn from a
// small pool, as the decision maker's are (many observations share one
// vector), so most queries have ties among equal distances; one feature is
// constant (Std 0 -> 1).
//
// The classifier must give the reference's answer exactly. The regressor
// keeps one row per distinct vector, so it is held to the unbounded
// regressor over the same samples: with one target per vector, == when the
// query vector is stored at least k times (every slot is that row, at
// distance 0) and within 1e-12 relative otherwise (the count-weighted
// scaler rounds differently from one sum per sample); with targets that
// vary, within 1e-12 relative of the oracle whose targets are each vector's
// mean.
func TestKNNEqualsReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([][]float64, 6+rng.Intn(10))
		target := make([]float64, len(pool))
		for i := range pool {
			pool[i] = []float64{float64(rng.Intn(4)), rng.Float64() * 100, 7, float64(rng.Intn(3)) * 1e6}
			target[i] = 0.5 + 2*rng.Float64()
		}
		// draw returns a vector and the target it carries when every copy
		// of a vector carries one target.
		draw := func() ([]float64, float64) {
			if rng.Intn(5) == 0 {
				return []float64{rng.Float64() * 4, rng.Float64() * 100, 7, rng.Float64() * 3e6}, 0.5 + 2*rng.Float64()
			}
			i := rng.Intn(len(pool))
			return pool[i], target[i]
		}
		k := 1 + rng.Intn(5)
		fixed, varying, cls := NewKNNRegressor(k), NewKNNRegressor(k), NewKNNClassifier(k)
		var refFixed, refVarying unboundedRegressor
		var refCls referenceKNN
		var clsY []int
		stored := map[string]int{}
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0:
				x, y := draw()
				fixed.Add(x, y)
				refFixed.add(x, y)
				y = 0.5 + 2*rng.Float64()
				varying.Add(x, y)
				refVarying.add(x, y)
				stored[fmt.Sprint(x)]++
			case 1:
				x, _ := draw()
				y := rng.Intn(4)
				cls.Add(x, y)
				refCls.add(x)
				clsY = append(clsY, y)
			default:
				x, _ := draw()
				got, err := fixed.Predict(x)
				want, ok := refFixed.predict(k, x)
				exact := stored[fmt.Sprint(x)] >= k
				if (err == nil) != ok || (exact && got != want) || !within(got, want, 1e-12) {
					t.Fatalf("seed %d step %d: one target per vector: regress(%v) = %v, %v; oracle %v, %v (exact %v)",
						seed, step, x, got, err, want, ok, exact)
				}
				got, err = varying.Predict(x)
				want, ok = refVarying.meanTargets().predict(k, x)
				if (err == nil) != ok || !within(got, want, 1e-12) {
					t.Fatalf("seed %d step %d: varying targets: regress(%v) = %v, %v; oracle over means %v, %v",
						seed, step, x, got, err, want, ok)
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

// within reports whether got is want to a relative tolerance.
func within(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// TestKNNRegressorIsBounded: the regressor's size follows the distinct
// vectors it has seen, not the samples.
func TestKNNRegressorIsBounded(t *testing.T) {
	r := NewKNNRegressor(3)
	for i := 0; i < 100000; i++ {
		r.Add([]float64{float64(i % 13), 1}, float64(i%7))
	}
	if len(r.x) != 13 || len(r.y) != 13 || len(r.count) != 13 || r.Len() != 100000 {
		t.Fatalf("%d rows (%d means, %d counts), Len() %d; want 13 rows, Len() 100000",
			len(r.x), len(r.y), len(r.count), r.Len())
	}
}
