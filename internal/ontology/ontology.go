// Package ontology provides the semantic vocabulary beneath service
// discovery: a concept hierarchy (the role DAML/DAML-S ontologies play in
// the paper), typed service profiles that describe capabilities and
// requirements, and a concept-similarity metric that lets the matcher rank
// inexact matches instead of demanding syntactic equality.
package ontology

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Root is the implicit top concept every ontology contains.
const Root = "Thing"

// Ontology is a directed acyclic is-a hierarchy of named concepts.
type Ontology struct {
	parents map[string][]string
	depth   map[string]int
	// ancestors holds each concept's reflexive-transitive ancestor set,
	// deepest first with ties in name order — the order LCS prefers. A
	// concept's parents exist before it does and never change, so the set
	// is fixed when AddConcept inserts the concept, and IsA, LCS and
	// Similarity only read it.
	ancestors map[string][]string
}

// New returns an ontology containing only Root.
func New() *Ontology {
	return &Ontology{
		parents:   map[string][]string{Root: nil},
		depth:     map[string]int{Root: 0},
		ancestors: map[string][]string{Root: {Root}},
	}
}

// AddConcept inserts a concept beneath one or more parents (Root when none
// are given). All parents must already exist and the concept must be new.
func (o *Ontology) AddConcept(name string, parents ...string) error {
	if name == "" {
		return fmt.Errorf("ontology: empty concept name")
	}
	if _, ok := o.parents[name]; ok {
		return fmt.Errorf("ontology: concept %q already defined", name)
	}
	if len(parents) == 0 {
		parents = []string{Root}
	}
	minDepth := -1
	for _, p := range parents {
		d, ok := o.depth[p]
		if !ok {
			return fmt.Errorf("ontology: parent %q of %q not defined", p, name)
		}
		if minDepth == -1 || d < minDepth {
			minDepth = d
		}
	}
	o.parents[name] = append([]string(nil), parents...)
	o.depth[name] = minDepth + 1
	closure := []string{name}
	for _, p := range parents {
		closure = append(closure, o.ancestors[p]...)
	}
	slices.SortFunc(closure, func(a, b string) int {
		if d := o.depth[b] - o.depth[a]; d != 0 {
			return d
		}
		return strings.Compare(a, b)
	})
	o.ancestors[name] = slices.Compact(closure)
	return nil
}

// Has reports whether the concept exists.
func (o *Ontology) Has(name string) bool {
	_, ok := o.parents[name]
	return ok
}

// Concepts lists every concept in deterministic order.
//
//lint:ignore deadcode test seam used by the discovery and ontology tests
func (o *Ontology) Concepts() []string {
	out := make([]string, 0, len(o.parents))
	for c := range o.parents {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// IsA reports whether sub is (reflexively, transitively) a kind of super.
func (o *Ontology) IsA(sub, super string) bool {
	return slices.Contains(o.ancestors[sub], super)
}

// LCS returns the deepest common ancestor of a and b (the first in name
// order among equally deep ones) and true, or Root and false when either
// concept is unknown.
func (o *Ontology) LCS(a, b string) (string, bool) {
	ancA, okA := o.ancestors[a]
	ancB, okB := o.ancestors[b]
	if !okA || !okB {
		return Root, false
	}
	for _, c := range ancB {
		if slices.Contains(ancA, c) {
			return c, true
		}
	}
	return Root, true // unreachable: every closure ends in Root
}

// Similarity scores two concepts in [0, 1] with the Wu–Palmer measure:
// 2·depth(lcs) / (depth(a) + depth(b)). Identical concepts score 1;
// unknown concepts score 0.
func (o *Ontology) Similarity(a, b string) float64 {
	if !o.Has(a) || !o.Has(b) {
		return 0
	}
	if a == b {
		return 1
	}
	lcs, _ := o.LCS(a, b)
	da, db, dl := o.depth[a], o.depth[b], o.depth[lcs]
	if da+db == 0 {
		return 1 // both are Root
	}
	return 2 * float64(dl) / float64(da+db)
}

// Pervasive builds the default pervasive-computing ontology used by the
// examples and experiments: sensors, computation, data, and device
// services in the spirit of the paper's scenarios.
func Pervasive() *Ontology {
	o := New()
	must := func(name string, parents ...string) {
		if err := o.AddConcept(name, parents...); err != nil {
			panic(err) // static vocabulary; a failure is a programming error
		}
	}
	must("Service")
	must("SensorService", "Service")
	must("TemperatureSensor", "SensorService")
	must("SmokeSensor", "SensorService")
	must("ToxinSensor", "SensorService")
	must("PathogenSensor", "SensorService")
	must("AcousticSensor", "SensorService")
	must("RadarSensor", "SensorService")
	must("ComputeService", "Service")
	must("PDESolver", "ComputeService")
	must("HeatSolver", "PDESolver")
	must("NavierStokesSolver", "PDESolver")
	must("AggregationService", "ComputeService")
	must("DataMiningService", "ComputeService")
	must("ClusteringService", "DataMiningService")
	must("DecisionTreeService", "DataMiningService")
	must("FourierSpectrumService", "DataMiningService")
	must("PredictiveScoringService", "DataMiningService")
	must("DataService", "Service")
	must("HospitalRecords", "DataService")
	must("IntelligenceReports", "DataService")
	must("WeatherData", "DataService")
	must("BuildingPlan", "DataService")
	must("MaterialProperties", "DataService")
	must("DeviceService", "Service")
	must("PrinterService", "DeviceService")
	must("ColorPrinter", "PrinterService")
	must("DisplayService", "DeviceService")
	must("StorageService", "DeviceService")
	must("GatewayService", "DeviceService")
	return o
}
