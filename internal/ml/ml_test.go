package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDatasetValidate(t *testing.T) {
	var d Dataset
	if err := d.Validate(); err != ErrEmpty {
		t.Fatalf("empty validate = %v, want ErrEmpty", err)
	}
	d.Add([]float64{1, 2}, 0)
	d.Add([]float64{3, 4}, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.X = append(d.X, []float64{5}) // ragged
	d.Y = append(d.Y, 0)
	if err := d.Validate(); err == nil {
		t.Fatal("ragged dataset should fail validation")
	}
	var nan Dataset
	nan.Add([]float64{math.NaN()}, 0)
	if err := nan.Validate(); err == nil {
		t.Fatal("NaN feature should fail validation")
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{0, 100}, {10, 300}, {20, 500}}
	s, err := fitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	z := s.transformInto(make([]float64, 2), []float64{10, 300})
	if math.Abs(z[0]) > 1e-9 || math.Abs(z[1]) > 1e-9 {
		t.Fatalf("mean point should map to ~0, got %v", z)
	}
	// Constant feature must not divide by zero.
	s2, err := fitScaler([][]float64{{5}, {5}})
	if err != nil {
		t.Fatal(err)
	}
	if v := s2.transformInto(make([]float64, 1), []float64{5})[0]; v != 0 {
		t.Fatalf("constant feature transform = %v, want 0", v)
	}
}

// accuracy scores a classifier over a dataset.
func accuracy(predict func([]float64) int, d Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	hit := 0
	for i, x := range d.X {
		if predict(x) == d.Y[i] {
			hit++
		}
	}
	return float64(hit) / float64(d.Len())
}

// treeDepth returns the tree height (a lone leaf has depth 0).
func treeDepth(t *DecisionTree) int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + max(depthOf(n.left), depthOf(n.right))
}

// treeNodes counts all nodes including leaves.
func treeNodes(t *DecisionTree) int { return countNodes(t.root) }

func countNodes(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// xorDataset is not linearly separable: a depth-2 tree must learn it.
func xorDataset() Dataset {
	var d Dataset
	for i := 0; i < 40; i++ {
		a, b := float64(i%2), float64((i/2)%2)
		label := 0
		if a != b {
			label = 1
		}
		d.Add([]float64{a, b}, label)
	}
	return d
}

func TestTreeLearnsXOR(t *testing.T) {
	d := xorDataset()
	tree, err := TrainTree(d, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree.Predict, d); acc != 1.0 {
		t.Fatalf("XOR accuracy = %v, want 1.0", acc)
	}
	if treeDepth(tree) < 2 {
		t.Fatalf("XOR needs depth >= 2, got %d", treeDepth(tree))
	}
}

func TestTreePureLeaf(t *testing.T) {
	var d Dataset
	for i := 0; i < 10; i++ {
		d.Add([]float64{float64(i)}, 7)
	}
	tree, err := TrainTree(d, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if treeNodes(tree) != 1 {
		t.Fatalf("pure dataset should give a single leaf, got %d nodes", treeNodes(tree))
	}
	if tree.Predict([]float64{99}) != 7 {
		t.Fatal("pure tree should always predict the one class")
	}
}

func TestTreeMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d Dataset
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0
		if x[0]+x[1]*2+x[2]*3 > 3 {
			y = 1
		}
		d.Add(x, y)
	}
	shallow, err := TrainTree(d, TreeConfig{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if treeDepth(shallow) > 2 {
		t.Fatalf("depth = %d exceeds MaxDepth 2", treeDepth(shallow))
	}
	deep, err := TrainTree(d, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if accuracy(deep.Predict, d) < accuracy(shallow.Predict, d) {
		t.Fatal("unbounded tree should fit training data at least as well")
	}
}

func TestTreeMinLeaf(t *testing.T) {
	d := xorDataset()
	tree, err := TrainTree(d, TreeConfig{MinLeaf: 30})
	if err != nil {
		t.Fatal(err)
	}
	// With MinLeaf 30 of 40 samples, no split is possible.
	if treeNodes(tree) != 1 {
		t.Fatalf("nodes = %d, want 1 (MinLeaf forbids splits)", treeNodes(tree))
	}
}

func TestTreeEmptyFails(t *testing.T) {
	if _, err := TrainTree(Dataset{}, TreeConfig{}); err == nil {
		t.Fatal("training on empty dataset should fail")
	}
}

func TestTreeGeneralises(t *testing.T) {
	// Train/test split on a noisy threshold concept.
	rng := rand.New(rand.NewSource(11))
	var train, test Dataset
	gen := func(d *Dataset, n int) {
		for i := 0; i < n; i++ {
			x := []float64{rng.Float64() * 10, rng.Float64() * 10}
			y := 0
			if x[0] > 5 {
				y = 1
			}
			d.Add(x, y)
		}
	}
	gen(&train, 300)
	gen(&test, 100)
	tree, err := TrainTree(train, TreeConfig{MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tree.Predict, test); acc < 0.95 {
		t.Fatalf("held-out accuracy = %v, want >= 0.95", acc)
	}
}

func TestTreeString(t *testing.T) {
	tree, err := TrainTree(xorDataset(), TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := tree.String()
	if s == "" {
		t.Fatal("String should render the tree")
	}
}

func TestKNNClassifier(t *testing.T) {
	c := NewKNNClassifier(3)
	if _, err := c.Predict([]float64{0}); err != ErrEmpty {
		t.Fatalf("empty predict err = %v, want ErrEmpty", err)
	}
	// Two well-separated clusters.
	for i := 0; i < 20; i++ {
		c.Add([]float64{float64(i%5) * 0.1, 0}, 0)
		c.Add([]float64{float64(i%5)*0.1 + 10, 0}, 1)
	}
	if y, _ := c.Predict([]float64{0.2, 0}); y != 0 {
		t.Fatalf("near cluster 0 predicted %d", y)
	}
	if y, _ := c.Predict([]float64{10.2, 0}); y != 1 {
		t.Fatalf("near cluster 1 predicted %d", y)
	}
}

func TestKNNScaleInvariance(t *testing.T) {
	// Feature 1 has a huge scale but carries no signal; standardisation
	// must keep feature 0 decisive.
	c := NewKNNClassifier(3)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		noise := rng.Float64() * 1e6
		if i%2 == 0 {
			c.Add([]float64{1, noise}, 0)
		} else {
			c.Add([]float64{2, noise}, 1)
		}
	}
	hits := 0
	for i := 0; i < 50; i++ {
		noise := rng.Float64() * 1e6
		want := i % 2
		x := []float64{1 + float64(want), noise}
		if y, _ := c.Predict(x); y == want {
			hits++
		}
	}
	if hits < 40 {
		t.Fatalf("scale-invariant accuracy = %d/50, want >= 40", hits)
	}
}

func TestKNNDefaultK(t *testing.T) {
	if NewKNNClassifier(0).K != 3 || NewKNNRegressor(-1).K != 3 {
		t.Fatal("non-positive k should default to 3")
	}
}

func TestKNNRegressor(t *testing.T) {
	r := NewKNNRegressor(3)
	if _, err := r.Predict([]float64{0}); err != ErrEmpty {
		t.Fatal("empty regressor should error")
	}
	for i := 0; i < 50; i++ {
		x := float64(i) / 10
		r.Add([]float64{x}, 3*x+1)
	}
	got, err := r.Predict([]float64{2.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-8.5) > 0.5 {
		t.Fatalf("regression at 2.5 = %v, want ~8.5", got)
	}
	// NaN targets are ignored.
	n := r.Len()
	r.Add([]float64{1}, math.NaN())
	if r.Len() != n {
		t.Fatal("NaN target should be rejected")
	}
}

// Property: the tree always predicts a label that occurs in training data.
func TestPropertyTreePredictsSeenLabel(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		var d Dataset
		for i := 0; i+1 < len(raw); i += 2 {
			d.Add([]float64{float64(raw[i])}, int(raw[i+1])%4)
		}
		tree, err := TrainTree(d, TreeConfig{})
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, y := range d.Y {
			seen[y] = true
		}
		for v := 0; v < 256; v += 7 {
			if !seen[tree.Predict([]float64{float64(v)})] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: training accuracy of an unbounded tree on distinct feature
// vectors is perfect.
func TestPropertyTreeFitsDistinctPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		var d Dataset
		used := map[float64]bool{}
		for i := 0; i < 50; i++ {
			x := math.Floor(rng.Float64() * 1e6)
			if used[x] {
				continue
			}
			used[x] = true
			d.Add([]float64{x}, rng.Intn(3))
		}
		tree, err := TrainTree(d, TreeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if acc := accuracy(tree.Predict, d); acc != 1.0 {
			t.Fatalf("trial %d: accuracy on distinct points = %v, want 1.0", trial, acc)
		}
	}
}

func BenchmarkTreeTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var d Dataset
	for i := 0; i < 500; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := 0
		if x[0]+x[1] > x[2]+x[3] {
			y = 1
		}
		d.Add(x, y)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainTree(d, TreeConfig{MaxDepth: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKNNPredict(b *testing.B) {
	c := NewKNNClassifier(5)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		c.Add([]float64{rng.Float64(), rng.Float64()}, i%3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict([]float64{0.5, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}
