package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// TreeConfig bounds decision-tree growth.
type TreeConfig struct {
	// MaxDepth limits tree height; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum samples in a leaf (default 1).
	MinLeaf int
}

// DecisionTree is a binary classification/“choose a class” tree with
// numeric threshold splits (x[Feature] <= Threshold goes left), trained by
// greedy Gini-impurity reduction — the CART flavour of the paper's
// "standard machine learning techniques".
type DecisionTree struct {
	root *treeNode
	// NumFeatures is the trained feature width.
	NumFeatures int
}

type treeNode struct {
	// Leaf fields.
	leaf  bool
	class int
	// Split fields.
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
}

// TrainTree fits a decision tree to the dataset.
func TrainTree(d Dataset, cfg TreeConfig) (*DecisionTree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &DecisionTree{NumFeatures: len(d.X[0])}
	t.root = grow(d, idx, cfg, 0)
	return t, nil
}

// gini computes the Gini impurity of the labels selected by idx.
func gini(d Dataset, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	counts := map[int]int{}
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	g := 1.0
	n := float64(len(idx))
	for _, c := range counts {
		p := float64(c) / n
		g -= p * p
	}
	return g
}

// majority returns the most frequent label (ties broken by smaller label).
func majority(d Dataset, idx []int) int {
	counts := map[int]int{}
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	best, bestN := 0, -1
	for label, c := range counts {
		if c > bestN || (c == bestN && label < best) {
			best, bestN = label, c
		}
	}
	return best
}

func pure(d Dataset, idx []int) bool {
	for _, i := range idx[1:] {
		if d.Y[i] != d.Y[idx[0]] {
			return false
		}
	}
	return true
}

func grow(d Dataset, idx []int, cfg TreeConfig, depth int) *treeNode {
	if len(idx) <= cfg.MinLeaf || pure(d, idx) || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) {
		return &treeNode{leaf: true, class: majority(d, idx)}
	}

	parentGini := gini(d, idx)
	// Accept zero-gain splits: concepts like XOR have no first split with
	// positive Gini gain, yet splitting still makes progress because both
	// children are strictly smaller. Recursion terminates regardless.
	bestGain := math.Inf(-1)
	bestFeature, bestThreshold := -1, 0.0
	n := float64(len(idx))
	w := len(d.X[0])

	order := make([]int, len(idx))
	for f := 0; f < w; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X[order[a]][f] < d.X[order[b]][f] })
		// Scan split points between distinct consecutive values,
		// maintaining left/right label counts incrementally.
		leftCounts := map[int]int{}
		rightCounts := map[int]int{}
		for _, i := range order {
			rightCounts[d.Y[i]]++
		}
		giniOf := func(counts map[int]int, total float64) float64 {
			if total == 0 {
				return 0
			}
			g := 1.0
			for _, c := range counts {
				p := float64(c) / total
				g -= p * p
			}
			return g
		}
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			leftCounts[d.Y[i]]++
			rightCounts[d.Y[i]]--
			v, next := d.X[i][f], d.X[order[k+1]][f]
			if v == next {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			if int(nl) < cfg.MinLeaf || int(nr) < cfg.MinLeaf {
				continue
			}
			gain := parentGini - (nl/n)*giniOf(leftCounts, nl) - (nr/n)*giniOf(rightCounts, nr)
			if gain > bestGain+1e-12 {
				bestGain = gain
				bestFeature = f
				bestThreshold = (v + next) / 2
			}
		}
	}

	if bestFeature < 0 {
		return &treeNode{leaf: true, class: majority(d, idx)}
	}

	var leftIdx, rightIdx []int
	for _, i := range idx {
		if d.X[i][bestFeature] <= bestThreshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{leaf: true, class: majority(d, idx)}
	}
	return &treeNode{
		feature:   bestFeature,
		threshold: bestThreshold,
		left:      grow(d, leftIdx, cfg, depth+1),
		right:     grow(d, rightIdx, cfg, depth+1),
	}
}

// Predict classifies one feature vector.
func (t *DecisionTree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// String renders the tree for debugging.
func (t *DecisionTree) String() string {
	var b strings.Builder
	var walk func(n *treeNode, indent string)
	walk = func(n *treeNode, indent string) {
		if n.leaf {
			fmt.Fprintf(&b, "%s=> class %d\n", indent, n.class)
			return
		}
		fmt.Fprintf(&b, "%sx[%d] <= %.4g?\n", indent, n.feature, n.threshold)
		walk(n.left, indent+"  ")
		walk(n.right, indent+"  ")
	}
	walk(t.root, "")
	return b.String()
}
