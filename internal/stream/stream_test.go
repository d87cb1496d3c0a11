package stream

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pervasivegrid/internal/ml"
)

func TestWindowValidation(t *testing.T) {
	if _, err := NewSlidingStats(0); err == nil {
		t.Fatal("zero sliding window should fail")
	}
}

func TestSlidingStats(t *testing.T) {
	s, err := NewSlidingStats(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Push(v)
	}
	p := s.Snapshot()
	if p.Count != 3 || p.Min != 3 || p.Max != 5 || p.Sum != 12 {
		t.Fatalf("snapshot = %+v, want last 3 values", p)
	}
}

// parityPredict is the d-bit parity function, the classic hard case whose
// spectrum is a single coefficient at the full mask.
func parityPredict(d int) func([]float64) int {
	return func(x []float64) int {
		p := 0
		for b := 0; b < d; b++ {
			if x[b] >= 0.5 {
				p ^= 1
			}
		}
		return p
	}
}

func TestFunctionSpectrumParity(t *testing.T) {
	d := 4
	s, err := FunctionSpectrum(parityPredict(d), d)
	if err != nil {
		t.Fatal(err)
	}
	// Parity maps to exactly one coefficient: mask 1111 with value -1
	// (since parity=1 -> +1 = -ψ_full under our 0/1→±1 mapping).
	if len(s.Coef) != 1 {
		t.Fatalf("parity spectrum has %d coefficients, want 1: %v", len(s.Coef), s.Coef)
	}
	c, ok := s.Coef[uint32(1<<d)-1]
	if !ok || math.Abs(math.Abs(c)-1) > 1e-12 {
		t.Fatalf("full-mask coefficient = %v ok=%v", c, ok)
	}
}

func TestSpectrumReconstructsFunction(t *testing.T) {
	d := 6
	rng := rand.New(rand.NewSource(9))
	table := make([]int, 1<<d)
	for i := range table {
		table[i] = rng.Intn(2)
	}
	predict := func(x []float64) int {
		idx := 0
		for b := 0; b < d; b++ {
			if x[b] >= 0.5 {
				idx |= 1 << b
			}
		}
		return table[idx]
	}
	s, err := FunctionSpectrum(predict, d)
	if err != nil {
		t.Fatal(err)
	}
	// Full spectrum must reconstruct the function exactly.
	x := make([]float64, d)
	for i := 0; i < 1<<d; i++ {
		for b := 0; b < d; b++ {
			x[b] = float64((i >> b) & 1)
		}
		if s.Classify(x) != table[i] {
			t.Fatalf("reconstruction differs at %06b", i)
		}
	}
}

func TestSpectrumParseval(t *testing.T) {
	// Property: Σ w_S² = 1 for ±1-valued functions (Parseval).
	f := func(seed int64) bool {
		d := 5
		rng := rand.New(rand.NewSource(seed))
		table := make([]int, 1<<d)
		for i := range table {
			table[i] = rng.Intn(2)
		}
		predict := func(x []float64) int {
			idx := 0
			for b := 0; b < d; b++ {
				if x[b] >= 0.5 {
					idx |= 1 << b
				}
			}
			return table[idx]
		}
		s, err := FunctionSpectrum(predict, d)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, c := range s.Coef {
			sum += c * c
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateKeepsDominant(t *testing.T) {
	d := 4
	s, err := FunctionSpectrum(func(x []float64) int {
		if x[0] >= 0.5 {
			return 1
		}
		return 0
	}, d)
	if err != nil {
		t.Fatal(err)
	}
	// f depends only on x0: spectrum is one coefficient at mask 0001.
	tr := s.Truncate(1)
	if len(tr.Coef) != 1 {
		t.Fatalf("truncated size = %d", len(tr.Coef))
	}
	if _, ok := tr.Coef[1]; !ok {
		t.Fatalf("dominant mask missing: %v", tr.Coef)
	}
	// Truncate with k >= len keeps everything.
	if got := s.Truncate(100); len(got.Coef) != len(s.Coef) {
		t.Fatal("over-truncation changed size")
	}
	if got := s.Truncate(0); len(got.Coef) != len(s.Coef) {
		t.Fatal("k=0 should keep everything")
	}
}

func TestCombineValidation(t *testing.T) {
	if _, err := Combine(nil, nil); err == nil {
		t.Fatal("empty combine should fail")
	}
	a, _ := FunctionSpectrum(parityPredict(3), 3)
	b, _ := FunctionSpectrum(parityPredict(4), 4)
	if _, err := Combine([]*Spectrum{a, b}, nil); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
	if _, err := Combine([]*Spectrum{a}, []float64{1, 2}); err == nil {
		t.Fatal("weight count mismatch should fail")
	}
	if _, err := Combine([]*Spectrum{a}, []float64{-1}); err == nil {
		t.Fatal("negative weight should fail")
	}
	if _, err := Combine([]*Spectrum{a}, []float64{0}); err == nil {
		t.Fatal("zero weights should fail")
	}
}

func TestCombineAgreeingSpectra(t *testing.T) {
	d := 4
	a, _ := FunctionSpectrum(parityPredict(d), d)
	b, _ := FunctionSpectrum(parityPredict(d), d)
	c, err := Combine([]*Spectrum{a, b}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 0, 0}
	if c.Classify(x) != parityPredict(d)(x) {
		t.Fatal("combined identical spectra should agree with the source")
	}
}

func TestFourierDimensionBounds(t *testing.T) {
	if _, err := FunctionSpectrum(parityPredict(1), 0); err == nil {
		t.Fatal("d=0 should fail")
	}
	if _, err := FunctionSpectrum(parityPredict(1), MaxFourierDim+1); err == nil {
		t.Fatal("too-large d should fail")
	}
	if _, err := TreeSpectrum(nil, 4); err == nil {
		t.Fatal("nil tree should fail")
	}
	if _, err := NewEnsembleMiner(0, 4); err == nil {
		t.Fatal("bad miner dimension should fail")
	}
}

// blockFor synthesises a labelled block from a boolean concept with label
// noise.
func blockFor(rng *rand.Rand, d, n int, concept func([]float64) int, noise float64) ml.Dataset {
	var ds ml.Dataset
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for b := range x {
			x[b] = float64(rng.Intn(2))
		}
		y := concept(x)
		if rng.Float64() < noise {
			y = 1 - y
		}
		ds.Add(x, y)
	}
	return ds
}

func TestEnsembleMinerLearnsConcept(t *testing.T) {
	d := 8
	concept := func(x []float64) int {
		if x[0] >= 0.5 && x[3] >= 0.5 {
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(17))
	miner, err := NewEnsembleMiner(d, 16)
	if err != nil {
		t.Fatal(err)
	}
	for block := 0; block < 6; block++ {
		if _, err := miner.AddBlock(blockFor(rng, d, 200, concept, 0.05)); err != nil {
			t.Fatal(err)
		}
	}
	if len(miner.spectra) != 6 {
		t.Fatalf("blocks = %d", len(miner.spectra))
	}
	// Evaluate on clean data.
	hits := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		x := make([]float64, d)
		for b := range x {
			x[b] = float64(rng.Intn(2))
		}
		got, err := miner.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if got == concept(x) {
			hits++
		}
	}
	if acc := float64(hits) / trials; acc < 0.9 {
		t.Fatalf("ensemble accuracy = %v, want >= 0.9", acc)
	}
}

func TestEnsembleCommunicationSavings(t *testing.T) {
	// The point of shipping truncated spectra: bytes on the wire are far
	// below shipping the raw blocks.
	d := 10
	concept := func(x []float64) int {
		if x[1] >= 0.5 {
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(3))
	miner, err := NewEnsembleMiner(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := 0
	blockSize := 500
	for block := 0; block < 4; block++ {
		ds := blockFor(rng, d, blockSize, concept, 0.02)
		rawBytes += blockSize * (d + 1) // one byte per binary feature + label
		if _, err := miner.AddBlock(ds); err != nil {
			t.Fatal(err)
		}
	}
	if miner.WireBytes() >= rawBytes/10 {
		t.Fatalf("spectra bytes %d not ≪ raw bytes %d", miner.WireBytes(), rawBytes)
	}
}

func TestEnsembleMinerBlockValidation(t *testing.T) {
	miner, _ := NewEnsembleMiner(4, 4)
	var wrong ml.Dataset
	wrong.Add([]float64{1, 0}, 1) // 2 features, miner wants 4
	if _, err := miner.AddBlock(wrong); err == nil {
		t.Fatal("wrong feature width should fail")
	}
	if _, err := miner.AddBlock(ml.Dataset{}); err == nil {
		t.Fatal("empty block should fail")
	}
	if _, err := miner.Classify([]float64{0, 0, 0, 0}); err == nil {
		t.Fatal("classify with no blocks should fail")
	}
}

func BenchmarkTreeSpectrum10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := 10
	ds := blockFor(rng, d, 300, parityPredict(3), 0)
	tree, err := ml.TrainTree(ds, ml.TreeConfig{MaxDepth: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TreeSpectrum(tree, d); err != nil {
			b.Fatal(err)
		}
	}
}
