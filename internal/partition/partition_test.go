package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"pervasivegrid/internal/pde"
	"pervasivegrid/internal/query"
)

func testFeatures(base query.Type, n int, ops float64) Features {
	return Features{Base: base, Selected: n, AvgDepth: 3, MaxDepth: 5, ComputeOps: ops}
}

func TestModelsAndStrings(t *testing.T) {
	if len(Models()) != 4 {
		t.Fatal("expected 4 solution models")
	}
	for _, m := range Models() {
		if m.String() == "" {
			t.Fatal("model should have a name")
		}
	}
	if Model(99).String() == "" {
		t.Fatal("unknown model should format")
	}
}

func TestTreeCheaperThanDirectForAggregates(t *testing.T) {
	e := NewEstimator(DefaultPlatform())
	f := testFeatures(query.Aggregate, 100, 0)
	direct := e.Estimate(ModelDirect, f)
	tree := e.Estimate(ModelTree, f)
	if !direct.Feasible || !tree.Feasible {
		t.Fatal("both models should be feasible for aggregates")
	}
	if tree.EnergyJ >= direct.EnergyJ {
		t.Fatalf("tree energy %g should beat direct %g", tree.EnergyJ, direct.EnergyJ)
	}
	if tree.Bytes >= direct.Bytes {
		t.Fatalf("tree bytes %d should beat direct %d", tree.Bytes, direct.Bytes)
	}
}

func TestComplexInfeasibleInNetwork(t *testing.T) {
	e := NewEstimator(DefaultPlatform())
	f := testFeatures(query.Complex, 100, pde.EstimateJacobiOps(64, 64, 1e-6))
	if e.Estimate(ModelTree, f).Feasible {
		t.Fatal("PDE solve must not be feasible as tree aggregation")
	}
	if e.Estimate(ModelCluster, f).Feasible {
		t.Fatal("PDE solve must not be feasible at cluster heads")
	}
	if !e.Estimate(ModelGrid, f).Feasible || !e.Estimate(ModelDirect, f).Feasible {
		t.Fatal("grid and base-station execution must remain feasible")
	}
}

func TestGridWinsForHeavyCompute(t *testing.T) {
	e := NewEstimator(DefaultPlatform())
	heavy := testFeatures(query.Complex, 50, 1e10)
	grid := e.Estimate(ModelGrid, heavy)
	direct := e.Estimate(ModelDirect, heavy)
	if grid.TimeSec >= direct.TimeSec {
		t.Fatalf("grid time %g should beat base-station time %g for 1e10 ops", grid.TimeSec, direct.TimeSec)
	}
	// And for trivial compute the transfer overhead makes grid slower.
	light := testFeatures(query.Simple, 5, 0)
	gridL := e.Estimate(ModelGrid, light)
	directL := e.Estimate(ModelDirect, light)
	if gridL.TimeSec <= directL.TimeSec {
		t.Fatalf("grid time %g should lose to base station %g with no compute", gridL.TimeSec, directL.TimeSec)
	}
}

func TestCrossoverExists(t *testing.T) {
	// Sweep compute ops: there must be a point where grid overtakes the
	// base station — the dynamic-partitioning motivation.
	e := NewEstimator(DefaultPlatform())
	prevWinner := ""
	flips := 0
	for _, ops := range []float64{0, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11} {
		f := testFeatures(query.Complex, 50, ops)
		grid := e.Estimate(ModelGrid, f)
		direct := e.Estimate(ModelDirect, f)
		w := "direct"
		if grid.TimeSec < direct.TimeSec {
			w = "grid"
		}
		if prevWinner != "" && w != prevWinner {
			flips++
		}
		prevWinner = w
	}
	if flips != 1 {
		t.Fatalf("expected exactly one crossover, got %d flips", flips)
	}
}

func TestChooseRespectsCostClause(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	f := testFeatures(query.Aggregate, 100, 0)

	// Tight energy budget (5 mJ): only in-network aggregation fits.
	qEnergy, err := query.Parse("SELECT avg(temp) FROM sensors COST energy 0.005")
	if err != nil {
		t.Fatal(err)
	}
	dec, err := d.Choose(qEnergy, f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model != ModelTree && dec.Model != ModelCluster {
		t.Fatalf("energy-bounded choice = %v, want in-network aggregation", dec.Model)
	}

	// Impossible budget: error.
	qImpossible, _ := query.Parse("SELECT avg(temp) FROM sensors COST energy 0.0000000001")
	if _, err := d.Choose(qImpossible, f); err == nil {
		t.Fatal("impossible cost limit should error")
	}
}

func TestChooseComplexGoesToGridOrBase(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	q, _ := query.Parse("SELECT tempdist(temp) FROM sensors")
	f := testFeatures(query.Complex, 100, 1e10)
	dec, err := d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model != ModelGrid && dec.Model != ModelDirect {
		t.Fatalf("complex query chose %v", dec.Model)
	}
	if len(dec.Infeasible) < 2 {
		t.Fatalf("tree and cluster should be infeasible: %v", dec.Infeasible)
	}
}

func TestChooseDefaultObjectivePrefersTreeForAggregates(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	dec, err := d.Choose(q, testFeatures(query.Aggregate, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model == ModelDirect || dec.Model == ModelGrid {
		t.Fatalf("aggregate over 200 sensors chose %v; in-network should win", dec.Model)
	}
}

func TestCalibrationAdjustsEstimates(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	f := testFeatures(query.Aggregate, 50, 0)
	raw := d.Est.Estimate(ModelTree, f)
	// Report that the real network costs 3x the analytic energy.
	for i := 0; i < 5; i++ {
		d.Observe(f, ModelTree, Measured{EnergyJ: raw.EnergyJ * 3, TimeSec: raw.TimeSec})
	}
	cal := d.calibrated(ModelTree, f, f.Vector())
	if cal.EnergyJ < raw.EnergyJ*2 {
		t.Fatalf("calibration did not absorb the 3x ratio: %g vs raw %g", cal.EnergyJ, raw.EnergyJ)
	}
}

func TestLearnedSelectorTakesOver(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.MinEvidence = 5
	f := testFeatures(query.Aggregate, 80, 0)
	// Teach that cluster is the winner for exactly these features (say
	// the analytic model is wrong for this deployment).
	for i := 0; i < 6; i++ {
		d.ObserveBest(f, ModelCluster)
	}
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	dec, err := d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Learned {
		t.Fatal("selector should be trusted after MinEvidence observations")
	}
	if dec.Model != ModelCluster {
		t.Fatalf("learned choice = %v, want cluster", dec.Model)
	}
}

func TestLearnedSelectorRespectsFeasibility(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.MinEvidence = 3
	f := testFeatures(query.Complex, 50, 1e10)
	// Maliciously teach an infeasible model; Choose must ignore it.
	for i := 0; i < 4; i++ {
		d.ObserveBest(f, ModelTree)
	}
	q, _ := query.Parse("SELECT tempdist(temp) FROM sensors")
	dec, err := d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model == ModelTree {
		t.Fatal("learned vote for an infeasible model must be overridden")
	}
}

func TestObserveIgnoresInvalidModel(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.Observe(testFeatures(query.Simple, 1, 0), Model(-1), Measured{})
	d.ObserveBest(testFeatures(query.Simple, 1, 0), Model(99))
	if d.Observations() != 0 {
		t.Fatal("invalid observations should be ignored")
	}
}

func TestAdaptationImprovesSelection(t *testing.T) {
	// Simulated world where the analytic model misjudges: cluster is
	// secretly best for mid-size aggregates. After feedback, the
	// decision maker should pick cluster for similar queries.
	rng := rand.New(rand.NewSource(4))
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.MinEvidence = 10
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")

	train := func() Features {
		return Features{
			Base: query.Aggregate, Selected: 60 + rng.Intn(40),
			AvgDepth: 2 + rng.Float64()*2, MaxDepth: 5,
		}
	}
	for i := 0; i < 20; i++ {
		d.ObserveBest(train(), ModelCluster)
	}
	hits := 0
	for i := 0; i < 20; i++ {
		dec, err := d.Choose(q, train())
		if err != nil {
			t.Fatal(err)
		}
		if dec.Model == ModelCluster {
			hits++
		}
	}
	if hits < 16 {
		t.Fatalf("after training, cluster chosen %d/20 times", hits)
	}
}

func TestFeatureVectorStable(t *testing.T) {
	f := testFeatures(query.Complex, 10, 1e6)
	v := f.Vector()
	if len(v) != 5 {
		t.Fatalf("feature width = %d", len(v))
	}
	f2 := f
	f2.Epoch = 10
	if f.Vector()[4] == f2.Vector()[4] {
		t.Fatal("continuity flag should differ")
	}
}

func TestTreeSelectorLearnsLikeKNN(t *testing.T) {
	// Both selector kinds must recover a policy the analytic model gets
	// wrong.
	rng := rand.New(rand.NewSource(8))
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	train := func() Features {
		return Features{
			Base: query.Aggregate, Selected: 60 + rng.Intn(40),
			AvgDepth: 2 + rng.Float64()*2, MaxDepth: 5,
		}
	}
	for _, kind := range []SelectorKind{SelectorKNN, SelectorTree} {
		d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
		d.Selector = kind
		d.MinEvidence = 10
		for i := 0; i < 30; i++ {
			d.ObserveBest(train(), ModelCluster)
		}
		hits := 0
		for i := 0; i < 20; i++ {
			dec, err := d.Choose(q, train())
			if err != nil {
				t.Fatal(err)
			}
			if dec.Model == ModelCluster {
				hits++
			}
		}
		if hits < 16 {
			t.Fatalf("%v selector: cluster chosen %d/20", kind, hits)
		}
	}
	if SelectorKNN.String() != "knn" || SelectorTree.String() != "tree" {
		t.Fatal("selector names")
	}
}

func TestTreeSelectorRetrainsOnNewEvidence(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.Selector = SelectorTree
	d.MinEvidence = 4
	f := testFeatures(query.Aggregate, 50, 0)
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	for i := 0; i < 6; i++ {
		d.ObserveBest(f, ModelTree)
	}
	dec, err := d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model != ModelTree {
		t.Fatalf("first regime: %v", dec.Model)
	}
	// The world shifts: cluster becomes best. The tree must retrain.
	for i := 0; i < 30; i++ {
		d.ObserveBest(f, ModelCluster)
	}
	dec, err = d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Model != ModelCluster {
		t.Fatalf("after shift: %v, want cluster", dec.Model)
	}
}

func TestExplorationVariesChoices(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.Exploration = 0.5
	d.ExploreSeed = 9
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	f := testFeatures(query.Aggregate, 100, 0)
	seen := map[Model]bool{}
	explored := 0
	for i := 0; i < 60; i++ {
		dec, err := d.Choose(q, f)
		if err != nil {
			t.Fatal(err)
		}
		seen[dec.Model] = true
		if dec.Explored {
			explored++
		}
	}
	if len(seen) < 3 {
		t.Fatalf("exploration visited only %d models", len(seen))
	}
	if explored < 15 || explored > 45 {
		t.Fatalf("explored %d/60 at epsilon 0.5", explored)
	}
}

func TestNoExplorationIsDeterministic(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	q, _ := query.Parse("SELECT avg(temp) FROM sensors")
	f := testFeatures(query.Aggregate, 100, 0)
	first, err := d.Choose(q, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		dec, err := d.Choose(q, f)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Model != first.Model || dec.Explored {
			t.Fatal("epsilon 0 must be deterministic")
		}
	}
}

func TestExplorationRespectsFeasibility(t *testing.T) {
	d := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	d.Exploration = 1.0 // always explore
	q, _ := query.Parse("SELECT tempdist(temp) FROM sensors")
	f := testFeatures(query.Complex, 100, 1e10)
	for i := 0; i < 40; i++ {
		dec, err := d.Choose(q, f)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Model == ModelTree || dec.Model == ModelCluster {
			t.Fatalf("explored into infeasible model %v", dec.Model)
		}
	}
}

// chooseShapes are the feature vectors the Choose+Observe cost tests cycle
// through: three aggregates and a tempdist-sized complex query.
var chooseShapes = []Features{
	testFeatures(query.Aggregate, 100, 0),
	testFeatures(query.Aggregate, 25, 0),
	testFeatures(query.Aggregate, 60, 0),
	testFeatures(query.Complex, 100, 4e7),
}

// chooseAfter returns a decision maker that has absorbed n executions of
// chooseShapes, and the Choose + Observe one more query pays.
func chooseAfter(tb testing.TB, n int) (*DecisionMaker, func(i int)) {
	meas := Measured{EnergyJ: 0.01, TimeSec: 0.5}
	dm := NewDecisionMaker(NewEstimator(DefaultPlatform()))
	step := func(i int) {
		f := chooseShapes[i%len(chooseShapes)]
		dec, err := dm.Choose(nil, f)
		if err != nil {
			tb.Fatal(err)
		}
		dm.Observe(f, dec.Model, meas)
	}
	for i := 0; i < n; i++ {
		step(i)
	}
	return dm, step
}

// BenchmarkChooseAfterN times one Choose + Observe — what every aggregate
// and complex query pays — once the decision maker has absorbed n
// executions. The calibration regressors keep one row per distinct feature
// vector (DESIGN.md "Calibration is a multiset"), so the cost is flat in n.
func BenchmarkChooseAfterN(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			_, step := chooseAfter(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
		})
	}
}

// chooseObserveAllocs is what one Choose + Observe allocates once the
// query's shape has been seen: the feature vector, the estimates Choose
// returns and the feasible map it scores with. It does not depend on how
// many executions came before.
const chooseObserveAllocs = 3

func TestChooseObserveAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not reproducible under the race detector")
	}
	for _, n := range []int{100, 20000} {
		_, step := chooseAfter(t, n)
		i := 0
		if got := testing.AllocsPerRun(200, func() { step(i); i++ }); got != chooseObserveAllocs {
			t.Fatalf("after %d executions a Choose + Observe allocates %v times, pinned at %d", n, got, chooseObserveAllocs)
		}
	}
}
