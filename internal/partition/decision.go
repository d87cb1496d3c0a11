package partition

import (
	"fmt"
	"math"
	"math/rand"

	"pervasivegrid/internal/ml"
	"pervasivegrid/internal/query"
)

// Measured is the observed cost of an executed query round, fed back into
// the decision maker.
type Measured struct {
	EnergyJ float64
	TimeSec float64
}

// Objective weights the two costs when the query's COST clause does not
// pin one of them.
type Objective struct {
	// EnergyWeight and TimeWeight blend normalised energy and time.
	EnergyWeight, TimeWeight float64
}

// DefaultObjective favours energy slightly, reflecting the paper's
// "preserving the energy of the sensors is of prime importance".
func DefaultObjective() Objective { return Objective{EnergyWeight: 0.6, TimeWeight: 0.4} }

// Decision is the decision maker's answer for one query.
type Decision struct {
	Model Model
	// Estimates holds the (calibrated) per-model estimates considered.
	Estimates []Estimate
	// Learned is true when the k-NN selector made the call rather than
	// the analytic estimates alone.
	Learned bool
	// Explored is true when epsilon-greedy exploration overrode the
	// normal choice.
	Explored bool
	// Infeasible lists models ruled out by feasibility or the COST
	// clause.
	Infeasible []Model
}

// SelectorKind picks the learning technique behind the adaptive selector —
// the paper says only "standard machine learning techniques would be used",
// so both a lazy (k-NN) and an eager (decision-tree) learner are provided
// and compared in the E5 ablation.
type SelectorKind int

// Selector kinds.
const (
	// SelectorKNN votes with the k nearest past executions (default).
	SelectorKNN SelectorKind = iota
	// SelectorTree retrains a decision tree over past executions.
	SelectorTree
)

func (k SelectorKind) String() string {
	if k == SelectorTree {
		return "tree"
	}
	return "knn"
}

// DecisionMaker implements the adaptive selection loop: analytic estimates
// calibrated by per-model regressors, with a learned classifier over past
// executions taking over once it has seen enough evidence (the Pythia
// approach transplanted to query partitioning).
type DecisionMaker struct {
	Est *Estimator
	Obj Objective
	// MinEvidence is how many observations the learner needs before its
	// vote is trusted (default 8).
	MinEvidence int
	// Selector picks the learning technique (default k-NN).
	Selector SelectorKind
	// Exploration is an epsilon-greedy rate in [0, 1): with this
	// probability Choose picks a random feasible model instead of the
	// best-scoring one, so Observe gathers evidence about alternatives —
	// the online counterpart of the paper's offline simulation phase.
	Exploration float64
	// ExploreSeed makes exploration reproducible (0 = fixed default).
	ExploreSeed int64
	exploreRng  *rand.Rand

	selector *ml.KNNClassifier
	selData  ml.Dataset
	selTree  *ml.DecisionTree // lazily trained; nil when stale
	// calibration maps features -> measured/estimated ratios per model.
	energyCal [numModels]*ml.KNNRegressor
	timeCal   [numModels]*ml.KNNRegressor
	observed  int
}

// NewDecisionMaker builds a decision maker over an estimator.
func NewDecisionMaker(est *Estimator) *DecisionMaker {
	d := &DecisionMaker{
		Est: est, Obj: DefaultObjective(), MinEvidence: 8,
		selector: ml.NewKNNClassifier(3),
	}
	for i := 0; i < numModels; i++ {
		d.energyCal[i] = ml.NewKNNRegressor(3)
		d.timeCal[i] = ml.NewKNNRegressor(3)
	}
	return d
}

// calibrated returns the estimate with learned correction factors applied;
// v is f.Vector().
func (d *DecisionMaker) calibrated(m Model, f Features, v []float64) Estimate {
	est := d.Est.Estimate(m, f)
	if r, err := d.energyCal[m].Predict(v); err == nil && r > 0 {
		est.EnergyJ *= r
	}
	if r, err := d.timeCal[m].Predict(v); err == nil && r > 0 {
		est.TimeSec *= r
	}
	return est
}

// Choose picks the solution model for a query with the given features. The
// query's COST clause acts as a hard constraint; remaining candidates are
// scored by the objective. An error is returned when no model is feasible
// within the cost limit.
//
// Budget 41: mostly the tree selector's training (14); a known shape allocates 3 times.
//
//lint:hot budget=41
func (d *DecisionMaker) Choose(q *query.Query, f Features) (Decision, error) {
	dec := Decision{Estimates: make([]Estimate, 0, numModels)}
	v := f.Vector()
	for _, m := range Models() {
		dec.Estimates = append(dec.Estimates, d.calibrated(m, f, v))
	}

	feasible := map[Model]Estimate{}
	for _, est := range dec.Estimates {
		ok := est.Feasible
		if ok && q != nil {
			switch q.CostMetric {
			case query.CostEnergy:
				ok = est.EnergyJ <= q.CostLimit
			case query.CostTime:
				ok = est.TimeSec <= q.CostLimit
			}
		}
		if ok {
			feasible[est.Model] = est
		} else {
			dec.Infeasible = append(dec.Infeasible, est.Model)
		}
	}
	if len(feasible) == 0 {
		return dec, fmt.Errorf("partition: no solution model satisfies %s within cost limit", q)
	}

	// Exploration layer: occasionally try a random feasible model so the
	// feedback loop sees alternatives it would otherwise never measure.
	if d.Exploration > 0 {
		if d.exploreRng == nil {
			seed := d.ExploreSeed
			if seed == 0 {
				seed = 42
			}
			d.exploreRng = rand.New(rand.NewSource(seed))
		}
		if d.exploreRng.Float64() < d.Exploration {
			options := make([]Model, 0, len(feasible))
			for _, m := range Models() {
				if _, ok := feasible[m]; ok {
					options = append(options, m)
				}
			}
			dec.Model = options[d.exploreRng.Intn(len(options))]
			dec.Explored = true
			return dec, nil
		}
	}

	// Learned layer: once enough executions are observed, let the
	// configured selector vote; its choice wins when feasible.
	if d.observed >= d.MinEvidence {
		if pred, ok := d.predictLearned(v); ok {
			if _, feas := feasible[pred]; feas {
				dec.Model = pred
				dec.Learned = true
				return dec, nil
			}
		}
	}

	// Analytic layer: optimise the query's pinned metric, or the blended
	// objective. Costs are normalised by the feasible pool's maxima so
	// the weights are scale-free.
	var maxE, maxT float64
	for _, est := range feasible {
		maxE = math.Max(maxE, est.EnergyJ)
		maxT = math.Max(maxT, est.TimeSec)
	}
	if maxE == 0 {
		maxE = 1
	}
	if maxT == 0 {
		maxT = 1
	}
	score := func(est Estimate) float64 {
		if q != nil {
			switch q.CostMetric {
			case query.CostEnergy:
				// Energy already constrained: minimise time.
				return est.TimeSec
			case query.CostTime:
				return est.EnergyJ
			}
		}
		return d.Obj.EnergyWeight*est.EnergyJ/maxE + d.Obj.TimeWeight*est.TimeSec/maxT
	}
	best := Model(-1)
	bestScore := math.Inf(1)
	for _, m := range Models() {
		est, ok := feasible[m]
		if !ok {
			continue
		}
		if s := score(est); s < bestScore {
			best, bestScore = m, s
		}
	}
	dec.Model = best
	return dec, nil
}

// Observe feeds a measured execution back: the calibration regressors learn
// the measured/estimated ratios, and the selector learns which model turned
// out cheapest for these features (the caller passes the model actually
// used and its measured cost; with Oracle-style training the caller can
// pass the best-known model).
func (d *DecisionMaker) Observe(f Features, m Model, meas Measured) {
	if m < 0 || int(m) >= numModels {
		return
	}
	raw := d.Est.Estimate(m, f)
	v := f.Vector()
	if raw.EnergyJ > 0 && meas.EnergyJ > 0 {
		d.energyCal[m].Add(v, meas.EnergyJ/raw.EnergyJ)
	}
	if raw.TimeSec > 0 && meas.TimeSec > 0 {
		d.timeCal[m].Add(v, meas.TimeSec/raw.TimeSec)
	}
	d.observed++
}

// ObserveBest additionally teaches the selector that model m was the best
// choice for features f (used when the caller can compare alternatives,
// e.g. during an exploration phase or offline simulation — the paper's
// "conduct simulations on these query types to generate data").
func (d *DecisionMaker) ObserveBest(f Features, m Model) {
	if m < 0 || int(m) >= numModels {
		return
	}
	v := f.Vector()
	d.selector.Add(v, int(m))
	d.selData.Add(v, int(m))
	d.selTree = nil // stale
	d.observed++
}

// predictLearned consults the configured selector at feature vector v.
func (d *DecisionMaker) predictLearned(v []float64) (Model, bool) {
	switch d.Selector {
	case SelectorTree:
		if d.selTree == nil {
			if d.selData.Len() == 0 {
				return 0, false
			}
			t, err := ml.TrainTree(d.selData, ml.TreeConfig{MaxDepth: 8, MinLeaf: 2})
			if err != nil {
				return 0, false
			}
			d.selTree = t
		}
		return Model(d.selTree.Predict(v)), true
	default:
		pred, err := d.selector.Predict(v)
		if err != nil {
			return 0, false
		}
		return Model(pred), true
	}
}

// Observations reports how much evidence the decision maker has absorbed.
//
//lint:ignore deadcode test seam used by the core and partition tests
func (d *DecisionMaker) Observations() int { return d.observed }
