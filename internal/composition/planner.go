// Package composition implements service composition for the pervasive
// grid: an HTN-style task library that decomposes complex requests into
// primitive service invocations (the paper's decision-tree-ensemble example
// decomposes into generate-trees → Fourier spectra → dominant components →
// combine), and an execution engine that binds each step to discovered
// services with fault tolerance, re-binding, graceful degradation, and
// reactive or proactive binding strategies, under centralized or
// distributed coordination.
package composition

import (
	"fmt"
	"sort"

	"pervasivegrid/internal/ontology"
)

// Task is a node in the HTN library: primitive tasks name a service concept
// to discover and invoke; compound tasks decompose into an ordered list of
// subtask names.
type Task struct {
	// Name uniquely identifies the task in its library.
	Name string
	// Concept is the service concept a primitive task binds to; empty
	// for compound tasks.
	Concept string
	// Inputs and Outputs are data concepts consumed/produced (primitive
	// tasks only).
	Inputs  []string
	Outputs []string
	// Subtasks is the preferred decomposition of a compound task, ordered
	// unless Unordered is set.
	Subtasks []string
	// Alternatives are ranked fallback decompositions for a compound
	// task: Alternatives[0] is tried when the primary Subtasks
	// decomposition cannot be executed (its bound services degraded),
	// Alternatives[1] after that, and so on. Every alternative shares the
	// task's Unordered flag.
	Alternatives [][]string
	// Unordered marks a compound task whose subtasks have no mutual data
	// dependencies and may execute concurrently; the engine models their
	// combined latency as the maximum rather than the sum.
	Unordered bool
	// Optional marks a step whose failure degrades the composite result
	// instead of failing it — the paper's graceful degradation.
	Optional bool
}

// Primitive reports whether the task binds directly to a service.
func (t *Task) Primitive() bool { return len(t.Subtasks) == 0 }

// Methods returns how many ranked decompositions a compound task carries
// (0 for primitives).
func (t *Task) Methods() int {
	if t.Primitive() {
		return 0
	}
	return 1 + len(t.Alternatives)
}

// Decomposition returns the i-th ranked decomposition: 0 is the primary
// Subtasks list, i>0 indexes Alternatives[i-1].
func (t *Task) Decomposition(i int) []string {
	if i <= 0 {
		return t.Subtasks
	}
	return t.Alternatives[i-1]
}

// Library is a named collection of task definitions.
type Library struct {
	tasks map[string]*Task
}

// NewLibrary returns an empty library.
func NewLibrary() *Library { return &Library{tasks: map[string]*Task{}} }

// Define adds a task. Primitive tasks need a concept; compound tasks need
// subtasks. Redefinition is an error.
func (l *Library) Define(t *Task) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("composition: task needs a name")
	}
	if _, ok := l.tasks[t.Name]; ok {
		return fmt.Errorf("composition: task %q already defined", t.Name)
	}
	if t.Primitive() && t.Concept == "" {
		return fmt.Errorf("composition: primitive task %q needs a concept", t.Name)
	}
	if !t.Primitive() && t.Concept != "" {
		return fmt.Errorf("composition: compound task %q must not name a concept", t.Name)
	}
	if t.Primitive() && len(t.Alternatives) > 0 {
		return fmt.Errorf("composition: primitive task %q cannot carry alternative decompositions", t.Name)
	}
	for i, alt := range t.Alternatives {
		if len(alt) == 0 {
			return fmt.Errorf("composition: task %q alternative %d is empty", t.Name, i)
		}
	}
	l.tasks[t.Name] = t
	return nil
}

// Step is one primitive step of an expanded plan.
type Step struct {
	Task *Task
	// Path records the compound tasks expanded to reach this step,
	// outermost first.
	Path []string
	// Group identifies the parallel group the step belongs to: steps
	// sharing a group came from the same unordered decomposition and may
	// run concurrently. Steps in singleton groups are sequential.
	Group int
}

// Plan expands a goal task depth-first into its ordered primitive steps,
// using every compound task's primary decomposition. Undefined subtasks
// and decomposition cycles are errors.
func (l *Library) Plan(goal string) ([]Step, error) {
	return l.planWith(goal, nil)
}

// planWith expands goal using method[name] to pick each compound task's
// decomposition (0 / absent = primary Subtasks, i>0 = Alternatives[i-1]).
func (l *Library) planWith(goal string, method map[string]int) ([]Step, error) {
	var out []Step
	visiting := map[string]bool{}
	nextGroup := 0
	// expand appends name's primitive steps; group < 0 means "allocate a
	// fresh group per primitive" (sequential context), group >= 0 pins
	// every primitive beneath an unordered parent to that group.
	var expand func(name string, path []string, group int) error
	expand = func(name string, path []string, group int) error {
		t, ok := l.tasks[name]
		if !ok {
			return fmt.Errorf("composition: task %q not defined (via %v)", name, path)
		}
		if visiting[name] {
			return fmt.Errorf("composition: decomposition cycle at %q (via %v)", name, path)
		}
		if t.Primitive() {
			g := group
			if g < 0 {
				g = nextGroup
				nextGroup++
			}
			out = append(out, Step{Task: t, Path: append([]string(nil), path...), Group: g})
			return nil
		}
		m := method[name]
		if m >= t.Methods() {
			return fmt.Errorf("composition: task %q has no decomposition %d", name, m)
		}
		visiting[name] = true
		defer delete(visiting, name)
		childGroup := group
		if t.Unordered && childGroup < 0 {
			childGroup = nextGroup
			nextGroup++
		}
		for _, sub := range t.Decomposition(m) {
			if err := expand(sub, append(path, name), childGroup); err != nil {
				return err
			}
		}
		return nil
	}
	if err := expand(goal, nil, -1); err != nil {
		return nil, err
	}
	return out, nil
}

// DefaultMaxPlans bounds PlanRanked's enumeration when the caller passes
// max <= 0.
const DefaultMaxPlans = 8

// PlanRanked expands goal into up to max distinct plans, ordered by
// preference: the all-primary plan first, then plans substituting
// alternative decompositions, cheapest deviations first (fewest and
// lowest-ranked alternatives; ties broken by task name). Plans whose
// decomposition choice fails to expand are skipped; duplicate step
// sequences (an alternative on a task the goal never reaches) are
// deduplicated. An error is returned only when no choice yields a plan.
func (l *Library) PlanRanked(goal string, max int) ([][]Step, error) {
	if max <= 0 {
		max = DefaultMaxPlans
	}
	// Compound tasks carrying alternatives, sorted for deterministic
	// enumeration order.
	var names []string
	for name, t := range l.tasks {
		if !t.Primitive() && len(t.Alternatives) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	counts := make([]int, len(names))
	maxSum := 0
	for i, n := range names {
		counts[i] = l.tasks[n].Methods()
		maxSum += counts[i] - 1
	}

	var plans [][]Step
	seen := map[string]bool{}
	var firstErr error
	vec := make([]int, len(names))
	emit := func() {
		method := make(map[string]int, len(names))
		for j, n := range names {
			method[n] = vec[j]
		}
		steps, err := l.planWith(goal, method)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		sig := planSignature(steps)
		if seen[sig] {
			return
		}
		seen[sig] = true
		plans = append(plans, steps)
	}
	// Enumerate choice vectors in order of increasing total deviation
	// from the primary plan, lexicographic within a band.
	for s := 0; s <= maxSum && len(plans) < max; s++ {
		var rec func(i, remaining int)
		rec = func(i, remaining int) {
			if len(plans) >= max {
				return
			}
			if i == len(names) {
				if remaining == 0 {
					emit()
				}
				return
			}
			limit := counts[i] - 1
			if limit > remaining {
				limit = remaining
			}
			for v := 0; v <= limit; v++ {
				vec[i] = v
				rec(i+1, remaining-v)
			}
			vec[i] = 0
		}
		rec(0, s)
	}
	if len(plans) == 0 {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("composition: no plan for goal %q", goal)
	}
	return plans, nil
}

// planSignature fingerprints a plan for deduplication: the ordered task
// names with their parallel-group structure.
func planSignature(plan []Step) string {
	sig := make([]byte, 0, 16*len(plan))
	for _, s := range plan {
		sig = append(sig, s.Task.Name...)
		sig = append(sig, '#')
		sig = fmt.Appendf(sig, "%d", s.Group)
		sig = append(sig, ';')
	}
	return string(sig)
}

// ValidateDataflow checks that every step's inputs are produced by earlier
// steps or supplied initially, using ontology subsumption (a step wanting a
// SensorService input accepts a TemperatureSensor output).
func ValidateDataflow(plan []Step, initial []string, o *ontology.Ontology) error {
	available := append([]string(nil), initial...)
	provides := func(want string) bool {
		for _, have := range available {
			if have == want || o.IsA(have, want) {
				return true
			}
		}
		return false
	}
	for i, s := range plan {
		for _, in := range s.Task.Inputs {
			if !provides(in) {
				return fmt.Errorf("composition: step %d (%s) needs input %q not yet produced", i, s.Task.Name, in)
			}
		}
		available = append(available, s.Task.Outputs...)
	}
	return nil
}

// StreamMiningLibrary builds the paper's worked decomposition: "generating
// decision trees, computing their Fourier spectra, choosing the dominant
// components, and combining them to create a single tree".
func StreamMiningLibrary() *Library {
	l := NewLibrary()
	must := func(t *Task) {
		if err := l.Define(t); err != nil {
			panic(err) // static definitions; failure is a programming error
		}
	}
	must(&Task{
		Name: "mine-stream", Subtasks: []string{
			"generate-trees", "compute-spectra", "choose-dominant", "combine-tree",
		},
	})
	must(&Task{
		Name: "generate-trees", Concept: "DecisionTreeService",
		Inputs: []string{"SensorService"}, Outputs: []string{"DecisionTreeService"},
	})
	must(&Task{
		Name: "compute-spectra", Concept: "FourierSpectrumService",
		Inputs: []string{"DecisionTreeService"}, Outputs: []string{"FourierSpectrumService"},
	})
	must(&Task{
		Name: "choose-dominant", Concept: "DataMiningService",
		Inputs: []string{"FourierSpectrumService"}, Outputs: []string{"DataMiningService"},
	})
	must(&Task{
		Name: "combine-tree", Concept: "DecisionTreeService",
		Inputs: []string{"DataMiningService"}, Outputs: []string{"DecisionTreeService"},
	})
	return l
}
