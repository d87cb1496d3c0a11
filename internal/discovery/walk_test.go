package discovery

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// referenceMatchers are the matchers the differential tests run: the
// defaults, zero weights and MinScore (which fall back to the defaults), a
// preference-heavy blend, and one that ignores preferences.
func referenceMatchers(onto *ontology.Ontology) []*SemanticMatcher {
	return []*SemanticMatcher{
		NewSemanticMatcher(onto),
		{Onto: onto},
		{Onto: onto, MinScore: 0.7, ConceptWeight: 1, IOWeight: 1, PrefWeight: 3},
		{Onto: onto, MinScore: 0.5, ConceptWeight: 2, IOWeight: 1, PrefWeight: 0},
	}
}

// sameMatches fails unless got holds exactly want's profiles, scores (bit
// for bit) and order.
func sameMatches(t *testing.T, what string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, the reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Profile != want[i].Profile || bits(got[i].Score) != bits(want[i].Score) {
			t.Fatalf("%s rank %d: %s (%v), the reference has %s (%v)", what, i,
				got[i].Profile.Name, got[i].Score, want[i].Profile.Name, want[i].Score)
		}
	}
}

// cut is the reference answer cut to max, as a lookup bounded by it
// returns it.
func cut(ms []Match, max int) []Match {
	if max > 0 && len(ms) > max {
		return ms[:max]
	}
	return ms
}

// twinRequest asks for a TemperatureSensor and no inputs or outputs, so
// every TemperatureSensor with no inputs scores exactly alike for it,
// whatever it outputs: twinProfile's two signatures tie, and their posting
// lists merge by name.
var twinRequest = ontology.Request{Concept: "TemperatureSensor"}

func twinProfile(rng *rand.Rand, name string) *ontology.Profile {
	return &ontology.Profile{Name: name, Concept: "TemperatureSensor",
		Outputs: [][]string{{"TemperatureSensor"}, {"SmokeSensor"}}[rng.Intn(2)],
		Properties: map[string]ontology.Value{
			"cost": ontology.Num(float64(rng.Intn(6))),
			"room": ontology.Str(fmt.Sprintf("r%d", rng.Intn(3))),
		}}
}

// interleaved reports whether, among the matches that score exactly alike,
// the answer leaves one signature and comes back to it: the name merge
// across posting lists decided that order.
func interleaved(ms []Match) bool {
	key := func(p *ontology.Profile) string { return fmt.Sprint(p.Concept, p.Inputs, p.Outputs) }
	for i := 0; i < len(ms); {
		j, left := i+1, map[string]bool{}
		for ; j < len(ms) && ms[j].Score == ms[i].Score; j++ {
			if k := key(ms[j].Profile); k != key(ms[j-1].Profile) {
				if left[k] {
					return true
				}
				left[key(ms[j-1].Profile)] = true
			}
		}
		i = j
	}
	return false
}

// TestPreferenceFreeLookupEqualsReference is the differential test of the
// posting-list walk. Registrations, renewals, withdrawals and clock steps
// churn a registry where two signatures tie exactly; after each burst
// Registry.Lookup with no preference, with and without constraints, returns
// exactly what the linear reference gives over Profiles, at Max 0, 1, 2, 5
// and one past the registry's size, through every reference matcher. The
// bursts reach both kinds of rebuild and views holding numbers whose
// profiles have all gone.
func TestPreferenceFreeLookupEqualsReference(t *testing.T) {
	onto := ontology.Pervasive()
	concepts := onto.Concepts()
	rng := rand.New(rand.NewSource(4409))
	clk := obs.NewFakeClock()
	r := NewRegistry()
	r.Clock = clk
	r.Metrics = obs.NewRegistry()
	leases := map[string]Lease{}
	var emptyLists, merged, matched int
	for round := 0; round < 400; round++ {
		burst := 1 + rng.Intn(4)
		if rng.Intn(10) == 0 {
			burst = 20 + rng.Intn(40) // more than a quarter of the view
		}
		for op := 0; op < burst; op++ {
			name := fmt.Sprintf("svc-%03d", rng.Intn(150))
			var p *ontology.Profile
			switch k := rng.Intn(10); {
			case k < 3:
				p = randomProfile(rng, name, concepts)
			case k < 6:
				p = twinProfile(rng, name)
			case k < 7:
				if l, err := r.Renew(leases[name], time.Duration(1+rng.Intn(20))*time.Second); err == nil {
					leases[name] = l
				}
			case k < 9:
				r.Deregister(name)
			default:
				clk.Advance(time.Duration(1+rng.Intn(3)) * time.Second)
			}
			if p != nil {
				l, err := r.Register(p, time.Duration(1+rng.Intn(20))*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				leases[name] = l
			}
		}

		live := r.Profiles()
		view := r.posted(r.view())
		for g := range view.sigs {
			if view.from[g] == view.from[g+1] {
				emptyLists++
				break
			}
		}
		twin := twinRequest
		if rng.Intn(2) == 0 {
			twin.Constraints = []ontology.Constraint{{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(3)}}
		}
		random := randomRequest(rng, concepts)
		random.PreferLow = nil
		if rng.Intn(2) == 0 {
			random.Constraints = nil
		}
		for _, req := range []ontology.Request{twin, random} {
			for mi, m := range referenceMatchers(onto) {
				ref := referenceMatch(m, req, live)
				matched += len(ref)
				if interleaved(ref) {
					merged++
				}
				for _, max := range []int{0, 1, 2, 5, len(live) + 1} {
					req.Max = max
					what := fmt.Sprintf("round %d matcher %d max %d request %+v", round, mi, max, req)
					sameMatches(t, what, r.Lookup(m, req), cut(ref, max))
				}
			}
		}
	}

	rebuilds := func(kind string) float64 {
		return r.Metrics.Counter("discovery_view_rebuilds_total", "kind", kind).Value()
	}
	merges, fulls := rebuilds("merge"), rebuilds("full")
	// The test is only as good as the paths it reached.
	if merges < 100 || fulls < 20 || emptyLists < 50 || merged < 100 || matched < 20000 {
		t.Fatalf("weak differential: %v merges, %v full rebuilds, %d views with an empty list, "+
			"%d answers interleaving tied signatures, %d reference matches", merges, fulls, emptyLists, merged, matched)
	}
	t.Logf("%v merges, %v full rebuilds, %d views with an empty list, %d answers interleaving tied signatures, %d reference matches",
		merges, fulls, emptyLists, merged, matched)
}

// fuzzVocab is the fuzzed registry's vocabulary: a few branches of the
// pervasive ontology, deep enough for subsumption and similarity to tell
// concepts apart, small enough for scores to tie.
var fuzzVocab = []string{"Service", "SensorService", "TemperatureSensor", "SmokeSensor",
	"ComputeService", "HeatSolver", "DataService", "WeatherData"}

// fuzzConcepts reads up to two concepts from b: how many in b%3, which in
// the rest.
func fuzzConcepts(b byte) []string {
	var out []string
	for n, rest := b%3, b/3; n > 0; n, rest = n-1, rest/8 {
		out = append(out, fuzzVocab[rest%8])
	}
	return out
}

// FuzzLookupEqualsReference: over a small registry whose signatures and
// costs the input lays out, three bytes a profile, a preference-free
// Registry.Lookup with a fuzzed concept, inputs, outputs, Max and optional
// cost constraint returns exactly what the reference returns, through a
// fuzzed reference matcher. It does again after the profiles that gone
// marks are withdrawn, which leaves their signatures' lists empty until a
// full rebuild.
func FuzzLookupEqualsReference(f *testing.F) {
	f.Add([]byte{2, 5, 5, 10, 5, 7, 2, 0, 0, 34, 5, 5}, uint8(2), uint8(0), uint8(0), uint8(3), uint8(0), uint64(0b0101))
	f.Add([]byte{2, 0, 0, 2, 4, 4, 3, 0, 0, 66, 0, 3, 130, 4, 4}, uint8(2), uint8(0), uint8(0), uint8(0), uint8(9), uint64(0b1))
	f.Add([]byte{1, 1, 1, 5, 7, 7, 0, 0, 0, 4, 2, 2, 6, 1, 4}, uint8(1), uint8(4), uint8(7), uint8(2), uint8(0x66), uint64(0b11010))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint64(0))
	onto := ontology.Pervasive()
	matchers := referenceMatchers(onto)
	ops := []ontology.Op{ontology.OpEq, ontology.OpNe, ontology.OpLt, ontology.OpLe, ontology.OpGt, ontology.OpGe}
	f.Fuzz(func(t *testing.T, layout []byte, concept, in, out, max, cons uint8, gone uint64) {
		r := NewRegistry()
		r.Clock = obs.NewFakeClock()
		var names []string
		for i := 0; i+3 <= len(layout) && i < 3*40; i += 3 {
			b := layout[i : i+3]
			p := &ontology.Profile{Name: fmt.Sprintf("svc-%02d", i/3), Concept: fuzzVocab[b[0]%8],
				Inputs: fuzzConcepts(b[1]), Outputs: fuzzConcepts(b[2]),
				Properties: map[string]ontology.Value{"cost": ontology.Num(float64(b[0] / 32))}}
			if _, err := r.Register(p, time.Hour); err != nil {
				t.Fatal(err)
			}
			names = append(names, p.Name)
		}
		req := ontology.Request{Concept: fuzzVocab[concept%8], Inputs: fuzzConcepts(in), Outputs: fuzzConcepts(out), Max: int(max % 8)}
		if concept%16 >= 8 {
			req.Concept = "NoSuchConcept"
		}
		if cons%4 > 0 {
			req.Constraints = []ontology.Constraint{{Property: "cost", Op: ops[int(cons/4)%len(ops)], Value: ontology.Num(float64(cons%4 + 1))}}
		}
		m := matchers[int(cons/32)%len(matchers)]
		sameMatches(t, fmt.Sprintf("request %+v", req), r.Lookup(m, req), cut(referenceMatch(m, req, r.Profiles()), req.Max))
		for i, name := range names {
			if gone>>(i%64)&1 == 1 {
				r.Deregister(name)
			}
		}
		sameMatches(t, fmt.Sprintf("after withdrawals, request %+v", req), r.Lookup(m, req),
			cut(referenceMatch(m, req, r.Profiles()), req.Max))
	})
}
