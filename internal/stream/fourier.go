// Package stream provides data-stream processing for the pervasive grid:
// a bounded-memory sliding summary of one sensor's readings, and the
// paper's worked stream-mining example — ensembles of decision trees whose
// Walsh–Fourier spectra are truncated to their dominant components and
// combined into a single classifier, so that distributed data sources ship
// compact spectra instead of raw data.
package stream

import (
	"fmt"
	"math"
	"sort"

	"pervasivegrid/internal/ml"
)

// MaxFourierDim bounds the binary feature dimension: the Walsh spectrum is
// computed over the full 2^d domain.
const MaxFourierDim = 16

// Spectrum is the Walsh–Fourier representation of a boolean classifier
// f: {0,1}^d -> {-1,+1}. Coefficient w_S (keyed by the bitmask S) is
// (1/2^d) Σ_x f(x)·(-1)^{x·S}. A truncated spectrum keeps only the
// dominant coefficients — the compact object distributed sites ship
// instead of raw data or whole trees.
type Spectrum struct {
	D    int
	Coef map[uint32]float64
}

// classifierSign evaluates a 0/1 classifier as ±1.
func classifierSign(predict func([]float64) int, x []float64) float64 {
	if predict(x) != 0 {
		return 1
	}
	return -1
}

// FunctionSpectrum computes the exact Walsh spectrum of any 0/1 classifier
// over d binary features using the fast Walsh–Hadamard transform
// (O(d·2^d)).
func FunctionSpectrum(predict func([]float64) int, d int) (*Spectrum, error) {
	if d < 1 || d > MaxFourierDim {
		return nil, fmt.Errorf("stream: fourier dimension %d outside [1,%d]", d, MaxFourierDim)
	}
	n := 1 << d
	f := make([]float64, n)
	x := make([]float64, d)
	for i := 0; i < n; i++ {
		for b := 0; b < d; b++ {
			x[b] = float64((i >> b) & 1)
		}
		f[i] = classifierSign(predict, x)
	}
	// In-place FWHT.
	for length := 1; length < n; length <<= 1 {
		for i := 0; i < n; i += length << 1 {
			for j := i; j < i+length; j++ {
				a, b := f[j], f[j+length]
				f[j], f[j+length] = a+b, a-b
			}
		}
	}
	s := &Spectrum{D: d, Coef: make(map[uint32]float64)}
	inv := 1 / float64(n)
	for i, v := range f {
		if c := v * inv; c != 0 {
			s.Coef[uint32(i)] = c
		}
	}
	return s, nil
}

// TreeSpectrum computes the spectrum of a trained decision tree over d
// binary features.
func TreeSpectrum(t *ml.DecisionTree, d int) (*Spectrum, error) {
	if t == nil {
		return nil, fmt.Errorf("stream: nil tree")
	}
	return FunctionSpectrum(t.Predict, d)
}

// Truncate returns a copy keeping the k coefficients of largest magnitude
// ("choosing the dominant components"). k <= 0 keeps everything.
func (s *Spectrum) Truncate(k int) *Spectrum {
	out := &Spectrum{D: s.D, Coef: make(map[uint32]float64)}
	if k <= 0 || k >= len(s.Coef) {
		for m, c := range s.Coef {
			out.Coef[m] = c
		}
		return out
	}
	type mc struct {
		m uint32
		c float64
	}
	all := make([]mc, 0, len(s.Coef))
	for m, c := range s.Coef {
		all = append(all, mc{m, c})
	}
	sort.Slice(all, func(i, j int) bool {
		ai, aj := math.Abs(all[i].c), math.Abs(all[j].c)
		if ai != aj {
			return ai > aj
		}
		return all[i].m < all[j].m
	})
	for _, e := range all[:k] {
		out.Coef[e.m] = e.c
	}
	return out
}

// Eval reconstructs f(x) = Σ_S w_S·(-1)^{x·S} from the (possibly
// truncated) spectrum.
func (s *Spectrum) Eval(x []float64) float64 {
	var xm uint32
	for b := 0; b < s.D && b < len(x); b++ {
		if x[b] >= 0.5 {
			xm |= 1 << b
		}
	}
	total := 0.0
	for m, c := range s.Coef {
		// parity of bits in m&xm decides the character sign.
		if parity(m&xm) == 1 {
			total -= c
		} else {
			total += c
		}
	}
	return total
}

// Classify thresholds Eval at zero, returning a 0/1 label.
func (s *Spectrum) Classify(x []float64) int {
	if s.Eval(x) >= 0 {
		return 1
	}
	return 0
}

func parity(v uint32) int {
	v ^= v >> 16
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return int(v & 1)
}

// WireBytes estimates the serialized size: 4-byte mask + 8-byte coefficient
// per entry, the number a site ships to the combiner.
func (s *Spectrum) WireBytes() int { return len(s.Coef) * 12 }

// Combine averages spectra with the given weights (nil = uniform),
// producing the ensemble classifier's spectrum. Spectra must share the same
// dimension.
func Combine(spectra []*Spectrum, weights []float64) (*Spectrum, error) {
	if len(spectra) == 0 {
		return nil, fmt.Errorf("stream: combine needs at least one spectrum")
	}
	d := spectra[0].D
	if weights == nil {
		weights = make([]float64, len(spectra))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(spectra) {
		return nil, fmt.Errorf("stream: %d weights for %d spectra", len(weights), len(spectra))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("stream: negative weight %v", w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("stream: all-zero weights")
	}
	out := &Spectrum{D: d, Coef: make(map[uint32]float64)}
	for i, s := range spectra {
		if s.D != d {
			return nil, fmt.Errorf("stream: dimension mismatch %d vs %d", s.D, d)
		}
		w := weights[i] / total
		for m, c := range s.Coef {
			out.Coef[m] += w * c
		}
	}
	return out, nil
}

// EnsembleMiner implements the paper's stream-analysis pipeline: each
// arriving data block trains a decision tree, its spectrum is truncated to
// TopK dominant components, and Classify answers from the combined
// ensemble.
type EnsembleMiner struct {
	// D is the binary feature dimension.
	D int
	// TopK bounds each block's shipped coefficients (0 = all).
	TopK int
	// TreeCfg configures the per-block trees.
	TreeCfg ml.TreeConfig

	spectra  []*Spectrum
	weights  []float64
	combined *Spectrum
}

// NewEnsembleMiner validates the dimensions.
func NewEnsembleMiner(d, topK int) (*EnsembleMiner, error) {
	if d < 1 || d > MaxFourierDim {
		return nil, fmt.Errorf("stream: dimension %d outside [1,%d]", d, MaxFourierDim)
	}
	return &EnsembleMiner{D: d, TopK: topK, TreeCfg: ml.TreeConfig{MaxDepth: 8}}, nil
}

// AddBlock trains a tree on one data block and folds its truncated spectrum
// into the ensemble, weighted by block size. It returns the bytes that
// block contributed on the wire.
func (e *EnsembleMiner) AddBlock(d ml.Dataset) (int, error) {
	if err := d.Validate(); err != nil {
		return 0, err
	}
	if len(d.X[0]) != e.D {
		return 0, fmt.Errorf("stream: block has %d features, miner expects %d", len(d.X[0]), e.D)
	}
	tree, err := ml.TrainTree(d, e.TreeCfg)
	if err != nil {
		return 0, err
	}
	spec, err := TreeSpectrum(tree, e.D)
	if err != nil {
		return 0, err
	}
	spec = spec.Truncate(e.TopK)
	e.spectra = append(e.spectra, spec)
	e.weights = append(e.weights, float64(d.Len()))
	e.combined = nil
	return spec.WireBytes(), nil
}

// Combined returns the ensemble spectrum, building it lazily.
func (e *EnsembleMiner) Combined() (*Spectrum, error) {
	if e.combined != nil {
		return e.combined, nil
	}
	c, err := Combine(e.spectra, e.weights)
	if err != nil {
		return nil, err
	}
	e.combined = c
	return c, nil
}

// Classify answers from the combined ensemble.
func (e *EnsembleMiner) Classify(x []float64) (int, error) {
	c, err := e.Combined()
	if err != nil {
		return 0, err
	}
	return c.Classify(x), nil
}

// WireBytes sums the bytes every block shipped.
func (e *EnsembleMiner) WireBytes() int {
	total := 0
	for _, s := range e.spectra {
		total += s.WireBytes()
	}
	return total
}
