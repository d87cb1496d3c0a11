package discovery

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

func printerFleet() []*ontology.Profile {
	return []*ontology.Profile{
		{
			Name: "lobby-mono", Concept: "PrinterService",
			Interface: "Printer.printIt", UUID: "uuid-lobby-mono",
			Properties: map[string]ontology.Value{
				"queue": ontology.Num(0), "cost": ontology.Num(0.02),
				"x": ontology.Num(90), "y": ontology.Num(90),
			},
		},
		{
			Name: "lab-color", Concept: "ColorPrinter",
			Interface: "Printer.printIt", UUID: "uuid-lab-color",
			Properties: map[string]ontology.Value{
				"queue": ontology.Num(7), "cost": ontology.Num(0.20),
				"color": ontology.Str("yes"),
				"x":     ontology.Num(5), "y": ontology.Num(5),
			},
		},
		{
			Name: "hall-color", Concept: "ColorPrinter",
			Interface: "Printer.printIt", UUID: "uuid-hall-color",
			Properties: map[string]ontology.Value{
				"queue": ontology.Num(2), "cost": ontology.Num(0.08),
				"color": ontology.Str("yes"),
				"x":     ontology.Num(20), "y": ontology.Num(0),
			},
		},
		{
			Name: "scanner", Concept: "DeviceService",
			Interface: "Scanner.scanIt", UUID: "uuid-scanner",
			Properties: map[string]ontology.Value{"x": ontology.Num(1), "y": ontology.Num(1)},
		},
	}
}

// TestPaperPrinterScenario reproduces the paper's worked example: "find a
// printer service that has the shortest print queue ... will print in color
// but only within a prespecified cost constraint" — which Jini lookup
// cannot express.
func TestPaperPrinterScenario(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	req := ontology.Request{
		Concept: "ColorPrinter",
		Constraints: []ontology.Constraint{
			{Property: "color", Op: ontology.OpEq, Value: ontology.Str("yes")},
			{Property: "cost", Op: ontology.OpLe, Value: ontology.Num(0.10)},
		},
		PreferLow: []string{"queue"},
	}
	got := m.Match(req, printerFleet())
	if len(got) != 1 {
		t.Fatalf("matches = %d, want exactly hall-color", len(got))
	}
	if got[0].Profile.Name != "hall-color" {
		t.Fatalf("best = %s, want hall-color", got[0].Profile.Name)
	}
}

func TestSemanticRankedFuzzyMatches(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	// No constraints: the generic printer should surface too, ranked
	// below the exact color printers.
	req := ontology.Request{Concept: "ColorPrinter", PreferLow: []string{"queue"}}
	got := m.Match(req, printerFleet())
	if len(got) < 3 {
		t.Fatalf("fuzzy match should return color + generic printers, got %d", len(got))
	}
	names := map[string]float64{}
	for _, g := range got {
		names[g.Profile.Name] = g.Score
	}
	if names["hall-color"] <= names["lobby-mono"] {
		t.Fatal("exact concept with short queue should outrank generic printer")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("results must be ranked descending")
		}
	}
	// The scanner (different branch) should rank last or be cut.
	if s, ok := names["scanner"]; ok && s >= names["lobby-mono"] {
		t.Fatal("unrelated service should not outrank a printer")
	}
}

func TestSemanticGeographicConstraint(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	req := ontology.Request{
		Concept: "PrinterService",
		X:       0, Y: 0, HasLoc: true,
		Constraints: []ontology.Constraint{{Op: ontology.OpNear, Value: ontology.Num(30)}},
	}
	got := m.Match(req, printerFleet())
	for _, g := range got {
		if g.Profile.Name == "lobby-mono" {
			t.Fatal("lobby-mono at (90,90) is outside 30m radius")
		}
	}
	if len(got) < 2 {
		t.Fatalf("nearby printers should match, got %d", len(got))
	}
}

func TestSemanticSubsumption(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	// Request the general category; the specialised color printer must
	// match strongly (specialisation is substitutable).
	req := ontology.Request{Concept: "PrinterService"}
	got := m.Match(req, printerFleet())
	found := false
	for _, g := range got {
		if g.Profile.Concept == "ColorPrinter" && g.Score > 0.8 {
			found = true
		}
	}
	if !found {
		t.Fatal("specialised service should strongly match a general request")
	}
}

func TestSemanticIOMatching(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	m.IOWeight = 1
	m.ConceptWeight = 0.001
	m.PrefWeight = 0.001
	m.MinScore = 0.01
	producer := &ontology.Profile{
		Name: "solver", Concept: "HeatSolver",
		Inputs:  []string{"TemperatureSensor"},
		Outputs: []string{"BuildingPlan"},
	}
	mismatch := &ontology.Profile{
		Name: "miner", Concept: "HeatSolver",
		Inputs:  []string{"HospitalRecords"},
		Outputs: []string{"WeatherData"},
	}
	req := ontology.Request{
		Concept: "HeatSolver",
		Inputs:  []string{"TemperatureSensor"},
		Outputs: []string{"BuildingPlan"},
	}
	got := m.Match(req, []*ontology.Profile{mismatch, producer})
	if len(got) == 0 || got[0].Profile.Name != "solver" {
		t.Fatalf("IO-compatible service should rank first: %+v", got)
	}
}

func TestJiniMatcherExactOnly(t *testing.T) {
	jm := JiniMatcher{}
	got := jm.Match(ontology.Request{Concept: "Printer.printIt"}, printerFleet())
	if len(got) != 3 {
		t.Fatalf("jini matches = %d, want 3 (all with the interface)", len(got))
	}
	// Jini cannot see the color/queue/cost distinctions: all scores 1.
	for _, g := range got {
		if g.Score != 1 {
			t.Fatal("jini assigns no ranking")
		}
	}
	if got := jm.Match(ontology.Request{Concept: "Printer.printColorCheap"}, printerFleet()); len(got) != 0 {
		t.Fatal("jini finds nothing without the exact interface string")
	}
}

func TestSDPMatcherUUIDOnly(t *testing.T) {
	sm := SDPMatcher{}
	got := sm.Match(ontology.Request{Concept: "uuid-lab-color"}, printerFleet())
	if len(got) != 1 || got[0].Profile.Name != "lab-color" {
		t.Fatalf("sdp match = %+v", got)
	}
	if got := sm.Match(ontology.Request{Concept: "uuid-unknown"}, printerFleet()); len(got) != 0 {
		t.Fatal("sdp must miss unknown UUIDs")
	}
}

func TestRegistryLeaseExpiry(t *testing.T) {
	clk := obs.NewFakeClock()
	r := NewRegistry()
	r.Clock = clk
	p := &ontology.Profile{Name: "s1", Concept: "Service"}
	lease, err := r.Register(p, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatal("registered profile missing")
	}
	clk.Advance(5 * time.Second)
	if r.Len() != 1 {
		t.Fatal("profile expired too early")
	}
	if _, err := r.Renew(lease, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second) // t=13, renewed lease expires at t=15
	if r.Len() != 1 {
		t.Fatal("renewed lease should still be live at t=13")
	}
	clk.Advance(5 * time.Second) // t=18 > 15
	if r.Len() != 0 {
		t.Fatal("expired profile should be swept")
	}
	if _, err := r.Renew(lease, time.Second); err == nil {
		t.Fatal("renewing an expired lease should fail")
	}

	// A lapsed lease is gone whether or not a read swept it first: no
	// read happens between the expiry and the renewal here.
	lease, err = r.Register(p, 10*time.Second) // t=18, expires at t=28
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second) // t=28: the last live instant
	if lease, err = r.Renew(lease, 10*time.Second); err != nil {
		t.Fatalf("renewing at the expiry instant should succeed: %v", err)
	}
	clk.Advance(10*time.Second + time.Nanosecond) // just past t=38
	if _, err := r.Renew(lease, time.Hour); err == nil {
		t.Fatal("renewing a lapsed lease should fail without an intervening read")
	}
	if r.Has("s1") || r.Len() != 0 {
		t.Fatal("a refused renewal must not resurrect the advertisement")
	}
}

func TestRegistryRenewToEarlierExpiry(t *testing.T) {
	clk := obs.NewFakeClock()
	r := NewRegistry()
	r.Clock = clk
	lease, err := r.Register(&ontology.Profile{Name: "long", Concept: "Service"}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Has("long") {
		t.Fatal("registered profile missing")
	}
	// The snapshot read above knows no expiry before the hour; a renewal
	// may still pull the lease in.
	if _, err := r.Renew(lease, time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if r.Has("long") || r.Len() != 0 || len(r.Profiles()) != 0 {
		t.Fatal("a lease renewed to a shorter ttl should lapse on the new expiry")
	}
}

func TestRegistryReplaceAndDeregister(t *testing.T) {
	r := NewRegistry()
	p1 := &ontology.Profile{Name: "svc", Concept: "Service"}
	l1, err := r.Register(p1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	p2 := &ontology.Profile{Name: "svc", Concept: "SensorService"}
	if _, err := r.Register(p2, time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := r.Profiles(); len(got) != 1 || got[0].Concept != "SensorService" {
		t.Fatalf("replacement failed: %+v", got)
	}
	if _, err := r.Renew(l1, time.Hour); err == nil {
		t.Fatal("superseded lease should not renew")
	}
	r.Deregister("svc")
	if r.Len() != 0 {
		t.Fatal("deregister failed")
	}
	r.Deregister("absent") // no-op
}

func TestRegistryValidation(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(nil, time.Hour); err == nil {
		t.Fatal("nil profile should fail")
	}
	if _, err := r.Register(&ontology.Profile{Name: "x"}, 0); err == nil {
		t.Fatal("zero ttl should fail")
	}
	if _, err := r.Renew(Lease{}, 0); err == nil {
		t.Fatal("zero ttl renew should fail")
	}
}

func TestBrokerFanOut(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	b1 := NewBroker("b1", m)
	b2 := NewBroker("b2", m)
	b1.Peer(b2, true)

	fleet := printerFleet()
	if _, err := b1.Reg.Register(fleet[0], time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Reg.Register(fleet[2], time.Hour); err != nil {
		t.Fatal(err)
	}

	req := ontology.Request{Concept: "PrinterService"}
	local := b1.LookupLocal(req)
	if len(local) != 1 {
		t.Fatalf("local lookup = %d, want 1", len(local))
	}
	all := b1.Lookup(req, 2)
	if len(all) != 2 {
		t.Fatalf("federated lookup = %d, want 2", len(all))
	}
	// Satisfied locally: no fan-out needed when want is met.
	one := b1.Lookup(req, 1)
	if len(one) != 1 {
		t.Fatalf("want-satisfied lookup = %d, want 1", len(one))
	}
}

func TestBrokerSync(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	b1 := NewBroker("b1", m)
	b2 := NewBroker("b2", m)
	b1.Peer(b2, false) // one-way replication

	for i, p := range printerFleet() {
		if _, err := b1.Reg.Register(p, time.Hour); err != nil {
			t.Fatalf("register %d: %v", i, err)
		}
	}
	n := b1.SyncOnce(time.Minute)
	if n != 4 {
		t.Fatalf("synced %d, want 4", n)
	}
	if b2.Reg.Len() != 4 {
		t.Fatalf("peer registry = %d, want 4", b2.Reg.Len())
	}
	// b2 can now answer locally.
	if got := b2.LookupLocal(ontology.Request{Concept: "ColorPrinter"}); len(got) == 0 {
		t.Fatal("replicated ads should answer local lookups")
	}
}

func TestBrokerSelfAndNilPeerIgnored(t *testing.T) {
	b := NewBroker("b", JiniMatcher{})
	b.Peer(nil, true)
	b.Peer(b, true)
	if len(b.Peers()) != 0 {
		t.Fatal("self/nil peers should be ignored")
	}
}

func TestSemanticScalability(t *testing.T) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	var pool []*ontology.Profile
	concepts := []string{"TemperatureSensor", "SmokeSensor", "HeatSolver", "ColorPrinter", "StorageService"}
	for i := 0; i < 2000; i++ {
		pool = append(pool, &ontology.Profile{
			Name:    fmt.Sprintf("svc-%d", i),
			Concept: concepts[i%len(concepts)],
			Properties: map[string]ontology.Value{
				"cost": ontology.Num(float64(i % 97)),
			},
		})
	}
	req := ontology.Request{
		Concept:     "TemperatureSensor",
		Constraints: []ontology.Constraint{{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(50)}},
	}
	got := m.Match(req, pool)
	if len(got) == 0 {
		t.Fatal("large pool should produce matches")
	}
	for _, g := range got {
		v, _ := g.Profile.Prop("cost")
		if v.N >= 50 {
			t.Fatal("constraint violated in result")
		}
	}
}

func BenchmarkSemanticMatch1000(b *testing.B) {
	o := ontology.Pervasive()
	m := NewSemanticMatcher(o)
	var pool []*ontology.Profile
	for i := 0; i < 1000; i++ {
		pool = append(pool, &ontology.Profile{
			Name:       fmt.Sprintf("svc-%d", i),
			Concept:    "TemperatureSensor",
			Properties: map[string]ontology.Value{"cost": ontology.Num(float64(i))},
		})
	}
	req := ontology.Request{Concept: "SensorService", PreferLow: []string{"cost"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.Match(req, pool); len(got) == 0 {
			b.Fatal("no matches")
		}
	}
}

// benchConcepts are the service categories of the benchmark population.
var benchConcepts = []string{
	"TemperatureSensor", "SmokeSensor", "HeatSolver", "ClusteringService",
	"WeatherData", "ColorPrinter", "DisplayService", "StorageService",
}

func benchProfile(rng *rand.Rand, i int) *ontology.Profile {
	concept := benchConcepts[i%len(benchConcepts)]
	return &ontology.Profile{
		Name:    fmt.Sprintf("svc-%06d", i),
		Concept: concept,
		Outputs: []string{concept},
		Properties: map[string]ontology.Value{
			"cost": ontology.Num(1 + float64(rng.Intn(100))),
			"load": ontology.Num(float64(rng.Intn(20))),
			"x":    ontology.Num(float64(rng.Intn(100))),
			"y":    ontology.Num(float64(rng.Intn(100))),
			"room": ontology.Str(fmt.Sprintf("r%d", rng.Intn(4))),
		},
	}
}

// benchRequests are lookups of mixed selectivity: a cost ceiling, a room,
// and a radius, each ranked by a preference.
func benchRequests(max int) []ontology.Request {
	var reqs []ontology.Request
	for i, concept := range benchConcepts {
		req := ontology.Request{Concept: concept, PreferLow: []string{"cost"}, X: 50, Y: 50, HasLoc: true, Max: max}
		switch i % 3 {
		case 0:
			req.Constraints = []ontology.Constraint{{Property: "cost", Op: ontology.OpLt, Value: ontology.Num(40)}}
		case 1:
			req.Constraints = []ontology.Constraint{{Property: "room", Op: ontology.OpEq, Value: ontology.Str("r1")}}
		default:
			req.Constraints = []ontology.Constraint{{Op: ontology.OpNear, Value: ontology.Num(40)}}
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// benchBroker registers n profiles drawn by profile with a broker.
func benchBroker(b testing.TB, n int, profile func(rng *rand.Rand, i int) *ontology.Profile) (*Broker, []*ontology.Profile, *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	broker := NewBroker("b", NewSemanticMatcher(ontology.Pervasive()))
	profiles := make([]*ontology.Profile, n)
	for i := range profiles {
		profiles[i] = profile(rng, i)
		if _, err := broker.Reg.Register(profiles[i], time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	return broker, profiles, rng
}

// composeRequest is the shape of a composition step's lookup: a concept
// and the outputs wanted, no constraint, no preference, the best three.
var composeRequest = ontology.Request{Concept: "TemperatureSensor", Outputs: []string{"TemperatureSensor"}, Max: 3}

// BenchmarkRegistryLookup is the isolated probe of the discovery read path:
// a top-5 lookup through the broker at three registry sizes, read-only and
// with every fiftieth operation re-advertising a service (which drops the
// snapshot). The constraint pass and the preference range are over the
// whole registry by definition, so the cost per lookup grows with it; the
// figure to watch is the slope, ns per profile. A composition step's
// lookup has no preference, so it walks the best signatures' posting lists
// and stops after three: its ns per lookup, timed with the view built, is
// flat in the registry's size. Two more cases probe the snapshot's index:
// one where 961 distinct signatures make finding each candidate's the
// work, and lease_churn's write-heavy shape, where every lookup follows a
// write and so pays for a rebuild.
func BenchmarkRegistryLookup(b *testing.B) {
	reqs := benchRequests(5)
	lookup := func(b *testing.B, broker *Broker, i int) {
		if got := broker.Lookup(reqs[i%len(reqs)], 5); len(got) != 5 {
			b.Fatalf("%d matches, want 5", len(got))
		}
	}
	for _, n := range []int{500, 5000, 50000} {
		b.Run(fmt.Sprintf("profiles=%d/compose", n), func(b *testing.B) {
			broker, _, _ := benchBroker(b, n, benchProfile)
			broker.Lookup(composeRequest, 3) // builds the view
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := broker.Lookup(composeRequest, 3); len(got) != 3 {
					b.Fatalf("%d matches, want 3", len(got))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/lookup")
		})
		for _, renewEvery := range []int{0, 50} {
			name := fmt.Sprintf("profiles=%d/read-only", n)
			if renewEvery > 0 {
				name = fmt.Sprintf("profiles=%d/renewals=2%%", n)
			}
			b.Run(name, func(b *testing.B) {
				broker, profiles, rng := benchBroker(b, n, benchProfile)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if renewEvery > 0 && i%renewEvery == renewEvery-1 {
						again := *profiles[rng.Intn(n)]
						if _, err := broker.Reg.Register(&again, time.Hour); err != nil {
							b.Fatal(err)
						}
						continue
					}
					lookup(b, broker, i)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/profile")
			})
		}
	}

	concepts := ontology.Pervasive().Concepts()
	b.Run("profiles=5000/signatures=distinct", func(b *testing.B) {
		broker, _, _ := benchBroker(b, 5000, func(rng *rand.Rand, i int) *ontology.Profile {
			p := benchProfile(rng, i)
			s := i % 961 // 31 inputs times 31 outputs
			p.Concept = benchConcepts[s%len(benchConcepts)]
			p.Inputs = []string{concepts[s%31]}
			p.Outputs = []string{concepts[s/31]}
			return p
		})
		if got := broker.Reg.view().sigs; got != 961 {
			b.Fatalf("%d signatures, want 961", got)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lookup(b, broker, i)
		}
	})

	// lease_churn's mix: three writes in four re-advertise a name of a
	// window of 500 beyond the seeded 2 000 (with new properties), the
	// fourth withdraws one. Each iteration is a write and the lookup that
	// rebuilds the snapshot after it.
	b.Run("profiles=2000/write-then-read", func(b *testing.B) {
		const n = 2000
		broker, _, rng := benchBroker(b, n, benchProfile)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := n + rng.Intn(500)
			if i%4 == 3 {
				broker.Reg.Deregister(fmt.Sprintf("svc-%06d", k))
			} else if _, err := broker.Reg.Register(benchProfile(rng, k), time.Hour); err != nil {
				b.Fatal(err)
			}
			lookup(b, broker, i)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/rebuild")
	})
}

// referenceNum is p's value of key when it is a finite number: a NaN or an
// infinity counts as no value, as a missing property does.
func referenceNum(p *ontology.Profile, key string) (float64, bool) {
	v, ok := p.Prop(key)
	if !ok || v.Kind != ontology.KindNumber || math.IsNaN(v.N) || math.IsInf(v.N, 0) {
		return 0, false
	}
	return v.N, true
}

// referencePrefScore and referenceMatch are SemanticMatcher's scoring as it
// stood before Match was rewritten to select instead of rank: every
// candidate scored against the ontology, every survivor stable-sorted. They
// are kept as the oracle for the differential test below; the changes
// since are that a preference value reads through referenceNum and that a
// span overflowing a float64 is halved.
func referencePrefScore(req ontology.Request, p *ontology.Profile, lo, hi map[string]float64) float64 {
	if len(req.PreferLow) == 0 {
		return 1
	}
	total, n := 0.0, 0
	for _, key := range req.PreferLow {
		v, ok := referenceNum(p, key)
		if !ok {
			continue
		}
		l, h := lo[key], hi[key]
		n++
		if h <= l {
			total += 1
			continue
		}
		d, w := v-l, h-l
		if math.IsInf(w, 0) {
			d, w = v/2-l/2, h/2-l/2
		}
		total += 1 - d/w
	}
	if n == 0 {
		return 0.5 // no preference data available
	}
	return total / float64(n)
}

func referenceMatch(m *SemanticMatcher, req ontology.Request, candidates []*ontology.Profile) []Match {
	cw, iw, pw := m.ConceptWeight, m.IOWeight, m.PrefWeight
	if cw <= 0 && iw <= 0 && pw <= 0 {
		cw, iw, pw = 0.6, 0.2, 0.2
	}
	sum := cw + iw + pw
	cw, iw, pw = cw/sum, iw/sum, pw/sum
	minScore := m.MinScore
	if minScore <= 0 {
		minScore = 0.35
	}

	// Pass 1: constraint filter; collect preference ranges over the
	// surviving pool so prefScore is scale-free.
	var pool []*ontology.Profile
	for _, p := range candidates {
		ok := true
		for _, c := range req.Constraints {
			if !ontology.Satisfies(p, c, req) {
				ok = false
				break
			}
		}
		if ok {
			pool = append(pool, p)
		}
	}
	lo, hi := map[string]float64{}, map[string]float64{}
	for _, key := range req.PreferLow {
		first := true
		for _, p := range pool {
			v, ok := referenceNum(p, key)
			if !ok {
				continue
			}
			if first || v < lo[key] {
				lo[key] = v
			}
			if first || v > hi[key] {
				hi[key] = v
			}
			first = false
		}
	}

	// Pass 2: score and rank.
	var out []Match
	for _, p := range pool {
		score := cw*m.conceptScore(req.Concept, p.Concept) +
			iw*m.ioScore(req, p) +
			pw*referencePrefScore(req, p, lo, hi)
		if score >= minScore {
			out = append(out, Match{Profile: p, Score: score})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Profile.Name < out[j].Profile.Name
	})
	return out
}

// randomProfile draws an advertisement over the whole vocabulary. Values
// come from small ranges so that scores tie often; properties go missing,
// turn up with the wrong kind, or hold a value no column cell can (a number
// with S set, a string with N set, an unknown Kind), a NaN or an infinity,
// so that every branch of Satisfies and prefScore, and of the view's
// columns, is reached.
func randomProfile(rng *rand.Rand, name string, concepts []string) *ontology.Profile {
	pick := func() []string {
		var out []string
		for n := rng.Intn(3); n > 0; n-- {
			out = append(out, concepts[rng.Intn(len(concepts))])
		}
		return out
	}
	p := &ontology.Profile{
		Name:       name,
		Concept:    concepts[rng.Intn(len(concepts))],
		Properties: map[string]ontology.Value{},
	}
	if rng.Intn(2) == 0 {
		// Half the population shares a few IO shapes, as real fleets do.
		p.Concept = concepts[rng.Intn(4)]
		p.Outputs = []string{p.Concept}
	} else {
		p.Inputs, p.Outputs = pick(), pick()
	}
	for _, key := range []string{"cost", "load", "x", "y"} {
		n := float64(rng.Intn(6))
		switch r := rng.Intn(24); {
		case r < 14:
			p.Properties[key] = ontology.Num(n)
		case r < 16:
			p.Properties[key] = ontology.Str("n/a")
		case r == 16:
			p.Properties[key] = ontology.Value{Kind: ontology.KindNumber, S: "n", N: n}
		case r == 17:
			p.Properties[key] = ontology.Value{Kind: ontology.KindString, S: "n/a", N: n + 1}
		case r == 18:
			p.Properties[key] = ontology.Num(math.NaN())
		case r == 20:
			p.Properties[key] = ontology.Num(math.Inf(1))
		case r == 21:
			p.Properties[key] = ontology.Num(math.Inf(-1))
		case r == 19:
			p.Properties[key] = ontology.Value{Kind: 7, N: n}
		}
	}
	if rng.Intn(4) > 0 {
		room := fmt.Sprintf("r%d", rng.Intn(3))
		switch rng.Intn(8) {
		case 0:
			p.Properties["room"] = ontology.Num(1) // numeric here, a string elsewhere
		case 1:
			p.Properties["room"] = ontology.Value{Kind: ontology.KindString, S: room, N: 1}
		default:
			p.Properties["room"] = ontology.Str(room)
		}
	}
	return p
}

func randomRequest(rng *rand.Rand, concepts []string) ontology.Request {
	req := ontology.Request{Concept: concepts[rng.Intn(len(concepts))]}
	if rng.Intn(8) == 0 {
		req.Concept = "NoSuchConcept"
	}
	for n := rng.Intn(3); n > 0; n-- {
		req.Inputs = append(req.Inputs, concepts[rng.Intn(len(concepts))])
	}
	for n := rng.Intn(3); n > 0; n-- {
		req.Outputs = append(req.Outputs, concepts[rng.Intn(len(concepts))])
	}
	if rng.Intn(2) == 0 {
		req.X, req.Y, req.HasLoc = float64(rng.Intn(6)), float64(rng.Intn(6)), true
	}
	ops := []ontology.Op{ontology.OpEq, ontology.OpNe, ontology.OpLt, ontology.OpLe, ontology.OpGt, ontology.OpGe}
	for n := rng.Intn(3); n > 0; n-- {
		switch rng.Intn(3) {
		case 0: // with and without HasLoc
			req.Constraints = append(req.Constraints,
				ontology.Constraint{Op: ontology.OpNear, Value: ontology.Num(float64(1 + rng.Intn(5)))})
		case 1:
			req.Constraints = append(req.Constraints, ontology.Constraint{
				Property: "room", Op: ops[rng.Intn(2)], Value: ontology.Str(fmt.Sprintf("r%d", rng.Intn(3)))})
		default:
			req.Constraints = append(req.Constraints, ontology.Constraint{
				Property: []string{"cost", "load"}[rng.Intn(2)], Op: ops[rng.Intn(len(ops))],
				Value: ontology.Num(float64(rng.Intn(6)))})
		}
	}
	// Up to three keys, repeats and a key nobody has included.
	for n := rng.Intn(4); n > 0; n-- {
		req.PreferLow = append(req.PreferLow, []string{"cost", "load", "x", "absent"}[rng.Intn(4)])
	}
	return req
}

// TestSemanticMatchEqualsReference is the differential test of the matcher:
// on random registries and requests, Match returns exactly the profiles,
// scores (==, not nearly) and order that the rank-everything reference
// gives, cut to Max. So does Registry.Lookup, which reads the properties
// from its view's columns, over the same population registered.
func TestSemanticMatchEqualsReference(t *testing.T) {
	onto := ontology.Pervasive()
	concepts := onto.Concepts()
	rng := rand.New(rand.NewSource(20031))
	matchers := referenceMatchers(onto)
	sizes := []int{0, 1, 7, 60, 400}
	matched, cut := 0, 0
	for trial := 0; trial < 300; trial++ {
		registry := make([]*ontology.Profile, sizes[trial%len(sizes)])
		for i := range registry {
			registry[i] = randomProfile(rng, fmt.Sprintf("svc-%03d", i), concepts)
		}
		rng.Shuffle(len(registry), func(i, j int) { registry[i], registry[j] = registry[j], registry[i] })
		m := matchers[rng.Intn(len(matchers))]
		req := randomRequest(rng, concepts)
		want := referenceMatch(m, req, registry)
		matched += len(want)
		reg := NewRegistry()
		reg.Clock = obs.NewFakeClock()
		for _, p := range registry {
			if _, err := reg.Register(p, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		for _, max := range []int{0, 1, 5, 50} {
			req.Max = max
			got := m.Match(req, registry)
			ref := want
			if max > 0 && len(ref) > max {
				ref = ref[:max]
				cut++
			}
			if len(got) != len(ref) {
				t.Fatalf("trial %d max %d: %d matches, reference has %d (request %+v)", trial, max, len(got), len(ref), req)
			}
			for i := range got {
				if got[i].Profile != ref[i].Profile || got[i].Score != ref[i].Score {
					t.Fatalf("trial %d max %d rank %d: %s (%v), reference has %s (%v) (request %+v)", trial, max, i,
						got[i].Profile.Name, got[i].Score, ref[i].Profile.Name, ref[i].Score, req)
				}
			}
			got = reg.Lookup(m, req)
			if len(got) != len(ref) {
				t.Fatalf("trial %d max %d: Lookup has %d matches, reference %d (request %+v)", trial, max, len(got), len(ref), req)
			}
			for i := range got {
				if got[i].Profile != ref[i].Profile || got[i].Score != ref[i].Score {
					t.Fatalf("trial %d max %d rank %d: Lookup has %s (%v), reference %s (%v) (request %+v)", trial, max, i,
						got[i].Profile.Name, got[i].Score, ref[i].Profile.Name, ref[i].Score, req)
				}
			}
		}
	}
	// The test is only as good as its coverage of non-trivial answers.
	if matched < 5000 || cut < 100 {
		t.Fatalf("weak differential: %d reference matches, %d answers cut by Max", matched, cut)
	}
}

// TestNonFinitePreferenceIsNoValue: a NaN or infinite cost, met first,
// neither blanks nor skews a preference-ranked answer. Registry.Lookup and
// Match rank the 49 finite costs in ascending order, and score the
// non-finite profile as one with no cost at all.
func TestNonFinitePreferenceIsNoValue(t *testing.T) {
	m := NewSemanticMatcher(ontology.Pervasive())
	req := ontology.Request{Concept: "Service", PreferLow: []string{"cost"}}
	registry := func(cost *float64) *Registry {
		r := NewRegistry()
		r.Clock = obs.NewFakeClock()
		for i := range 50 {
			p := &ontology.Profile{Name: fmt.Sprintf("svc-%02d", i), Concept: "Service",
				Properties: map[string]ontology.Value{"cost": ontology.Num(float64(i))}}
			if i == 0 { // named first, so met first
				delete(p.Properties, "cost")
				if cost != nil {
					p.Properties["cost"] = ontology.Num(*cost)
				}
			}
			if _, err := r.Register(p, time.Hour); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	type ranked struct {
		name  string
		score float64
	}
	answer := func(ms []Match) []ranked {
		out := make([]ranked, len(ms))
		for i, mt := range ms {
			out[i] = ranked{mt.Profile.Name, mt.Score}
		}
		return out
	}
	noCost := registry(nil)
	want := answer(noCost.Lookup(m, req))
	if len(want) != 50 {
		t.Fatalf("%d matches without svc-00's cost, want 50", len(want))
	}
	var costed []string
	for _, r := range want {
		if r.name != "svc-00" {
			costed = append(costed, r.name)
		}
	}
	for i, name := range costed {
		if name != fmt.Sprintf("svc-%02d", i+1) {
			t.Fatalf("rank %d among the finite costs is %s: not ascending by cost (%v)", i, name, costed)
		}
	}
	for _, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		r := registry(&cost)
		for path, got := range map[string][]Match{
			"Lookup": r.Lookup(m, req),
			"Match":  m.Match(req, r.Profiles()),
		} {
			if got := answer(got); !slices.Equal(got, want) {
				t.Fatalf("cost %v: %s has %d matches %v, want the answer without a cost %v", cost, path, len(got), got, want)
			}
		}
	}
}

// TestPreferenceSpanOverflow: finite costs whose span overflows a float64
// still score every candidate, cheapest first, on both matching paths and
// in the reference.
func TestPreferenceSpanOverflow(t *testing.T) {
	m := NewSemanticMatcher(ontology.Pervasive())
	req := ontology.Request{Concept: "Service", PreferLow: []string{"cost"}}
	r := NewRegistry()
	r.Clock = obs.NewFakeClock()
	for name, cost := range map[string]float64{"a": -1e308, "b": 0, "c": 1e308} {
		p := &ontology.Profile{Name: name, Concept: "Service",
			Properties: map[string]ontology.Value{"cost": ontology.Num(cost)}}
		if _, err := r.Register(p, time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	for path, got := range map[string][]Match{
		"Lookup":    r.Lookup(m, req),
		"Match":     m.Match(req, r.Profiles()),
		"reference": referenceMatch(m, req, r.Profiles()),
	} {
		var names []string
		for _, mt := range got {
			names = append(names, fmt.Sprintf("%s %.2f", mt.Profile.Name, mt.Score))
		}
		if want := []string{"a 1.00", "b 0.90", "c 0.80"}; !slices.Equal(names, want) {
			t.Errorf("%s = %v, want %v", path, names, want)
		}
	}
}

// TestRegistryLookupEqualsLinearUnderChurn is the differential test of the
// indexed read path. Random registrations (a name may come back with a new
// signature), renewals, withdrawals and clock steps run against a model of
// the leases. After each burst, Profiles must be exactly the model's live
// advertisements, and Registry.Lookup through a SemanticMatcher must return
// the profiles and scores (==) that the linear reference gives over them,
// at Max 0, 1 and 5. Bursts of every length reach every kind of rebuild:
// a merge that copies the view, a sweep past its horizon and a full one; a
// renewal to lapse before the horizon must touch the name.
func TestRegistryLookupEqualsLinearUnderChurn(t *testing.T) {
	onto := ontology.Pervasive()
	concepts := onto.Concepts()
	rng := rand.New(rand.NewSource(7919))
	clk := obs.NewFakeClock()
	r := NewRegistry()
	r.Clock = clk
	r.Metrics = obs.NewRegistry()
	m := NewSemanticMatcher(onto)
	rebuilds := func(kind string) int64 {
		return int64(r.Metrics.Counter("discovery_view_rebuilds_total", "kind", kind).Value())
	}

	type advert struct {
		p     *ontology.Profile
		lease Lease
	}
	model := map[string]advert{}
	live := func() []*ontology.Profile {
		var out []*ontology.Profile
		for _, a := range model {
			if !a.lease.Expires.Before(clk.Now()) {
				out = append(out, a.p)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		return out
	}
	var sweptTouched, sweptUntouched, renewDrops, renewEarlier, matched int
	for round := 0; round < 2000; round++ {
		burst := 1 + rng.Intn(4)
		if rng.Intn(10) == 0 {
			burst = 20 + rng.Intn(40) // more than a quarter of the view
		}
		for op := 0; op < burst; op++ {
			name := fmt.Sprintf("svc-%03d", rng.Intn(200))
			switch k := rng.Intn(10); {
			case k < 5:
				p := randomProfile(rng, name, concepts)
				l, err := r.Register(p, time.Duration(1+rng.Intn(20))*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				model[name] = advert{p, l}
			case k < 7:
				a, ok := model[name]
				viewed := r.snap.Load() != nil
				last := r.last
				ttl := time.Duration(1+rng.Intn(20)) * time.Second
				if rng.Intn(2) == 0 {
					ttl = time.Second / 2 // sooner than anything a view may know of
				}
				l, err := r.Renew(a.lease, ttl)
				if want := ok && !a.lease.Expires.Before(clk.Now()); (err == nil) != want {
					t.Fatalf("round %d: renew %s: %v, want success %v", round, name, err, want)
				}
				if err == nil {
					model[name] = advert{a.p, l}
					if viewed && r.snap.Load() == nil {
						renewDrops++
					}
					// Renewed to lapse before the horizon of the view the
					// next merge copies: the name must be merged again.
					if last != nil && l.Expires.Before(last.horizon) {
						renewEarlier++
						if r.last != nil && !slices.Contains(r.touched, name) {
							t.Fatalf("round %d: %s renewed to lapse before the horizon, not touched", round, name)
						}
					}
				}
			case k < 8:
				r.Deregister(name)
				delete(model, name)
			default:
				clk.Advance(time.Duration(1+rng.Intn(3)) * time.Second)
			}
		}

		// Which lapsed entries will the next read sweep, and from where?
		r.mu.Lock()
		for name, e := range r.entries {
			if e.lease.Expires.Before(clk.Now()) && r.last != nil {
				if slices.Contains(r.touched, name) {
					sweptTouched++
				} else {
					sweptUntouched++
				}
			}
		}
		r.mu.Unlock()

		want := live()
		got := r.Profiles()
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Profiles has %d advertisements, the model %d live ones", round, len(got), len(want))
		}
		req := randomRequest(rng, concepts)
		ref := referenceMatch(m, req, got)
		matched += len(ref)
		for _, max := range []int{0, 1, 5} {
			req.Max = max
			got := r.Lookup(m, req)
			ref := ref
			if max > 0 && len(ref) > max {
				ref = ref[:max]
			}
			if len(got) != len(ref) {
				t.Fatalf("round %d max %d: %d matches, reference has %d (request %+v)", round, max, len(got), len(ref), req)
			}
			for i := range got {
				if got[i].Profile != ref[i].Profile || got[i].Score != ref[i].Score {
					t.Fatalf("round %d max %d rank %d: %s (%v), reference has %s (%v) (request %+v)", round, max, i,
						got[i].Profile.Name, got[i].Score, ref[i].Profile.Name, ref[i].Score, req)
				}
			}
		}
	}

	// A write and then a read merges; it does not start over.
	if r.Len() < 8 {
		t.Fatalf("only %d advertisements left to merge into", r.Len())
	}
	merges, sweeps, fulls := rebuilds("merge"), rebuilds("sweep"), rebuilds("full")
	if _, err := r.Register(&ontology.Profile{Name: "svc-new", Concept: "Service"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	if got := r.Lookup(m, ontology.Request{Concept: "Service"}); len(got) == 0 {
		t.Fatal("no match after a registration")
	}
	if rebuilds("merge") != merges+1 || rebuilds("sweep") != sweeps || rebuilds("full") != fulls {
		t.Fatalf("write then read: %d merges, %d sweeps and %d full rebuilds, want %d, %d and %d",
			rebuilds("merge"), rebuilds("sweep"), rebuilds("full"), merges+1, sweeps, fulls)
	}

	// The test is only as good as the paths it reached.
	if merges < 200 || sweeps < 100 || fulls < 20 || sweptTouched == 0 || sweptUntouched == 0 ||
		renewDrops == 0 || renewEarlier == 0 || matched < 5000 {
		t.Fatalf("weak churn: %d merges, %d sweeps, %d full rebuilds, %d touched and %d untouched lapsed names swept, "+
			"%d renewals that dropped the view, %d before the horizon, %d reference matches",
			merges, sweeps, fulls, sweptTouched, sweptUntouched, renewDrops, renewEarlier, matched)
	}
	t.Logf("%d merges, %d sweeps, %d full rebuilds, %d touched and %d untouched lapsed names swept, "+
		"%d view drops on renewal, %d renewals before the horizon, %d reference matches",
		merges, sweeps, fulls, sweptTouched, sweptUntouched, renewDrops, renewEarlier, matched)
}

// everyMatcher returns every candidate in the order given, so a test sees
// exactly the slice Registry.Lookup hands its matcher.
type everyMatcher struct{}

func (everyMatcher) Name() string { return "every" }

func (everyMatcher) Match(_ ontology.Request, candidates []*ontology.Profile) []Match {
	out := make([]Match, len(candidates))
	for i, p := range candidates {
		out[i] = Match{Profile: p, Score: 1}
	}
	return out
}

// TestRegistryConcurrentReadersAndWriters runs lock-free readers against
// every kind of mutation while a fake clock lapses leases (run it under
// -race). Three populations make the guarantees checkable from outside:
// "steady" services whose leases are renewed before each tick and must be
// in every read; "brief" services registered once on a short lease, each
// carrying its own expiry so a reader can tell it has lapsed; and "gone"
// services withdrawn in sequence, so a reader knows which were withdrawn
// before its read began. Lookups constrained on and preferring "expires"
// read it from the view's columns while writes grow them, and the run
// places enough profiles to compact them.
func TestRegistryConcurrentReadersAndWriters(t *testing.T) {
	const (
		tick    = time.Second
		ticks   = 500
		steady  = 16
		readers = 3
	)
	clk := obs.NewFakeClock() // only the lease writer advances it
	start := clk.Now()
	elapsed := func() int64 { return int64(clk.Now().Sub(start)) }
	r := NewRegistry()
	r.Clock = clk
	r.Metrics = obs.NewRegistry()

	leases := make([]Lease, steady)
	for i := range leases {
		var err error
		leases[i], err = r.Register(&ontology.Profile{Name: fmt.Sprintf("steady-%02d", i), Concept: "Service"}, 3*tick)
		if err != nil {
			t.Fatal(err)
		}
	}

	var others sync.WaitGroup
	leasesDone := make(chan struct{})
	var stop atomic.Bool
	var withdrawn atomic.Int64 // gone-k is withdrawn for every k below this

	// The lease writer renews, registers short leases, and moves time on;
	// the run is as long as its ticks.
	go func() {
		defer close(leasesDone)
		for n := 0; n < ticks; n++ {
			now := elapsed()
			for i := range leases {
				l, err := r.Renew(leases[i], 3*tick)
				if err != nil {
					t.Errorf("tick %d: renew %s: %v", n, leases[i].Name, err)
					return
				}
				leases[i] = l
			}
			ttl := time.Duration(1+n%3) * tick / 2
			brief := &ontology.Profile{Name: fmt.Sprintf("brief-%04d", n), Concept: "Service",
				Properties: map[string]ontology.Value{"expires": ontology.Num(float64(now + int64(ttl)))}}
			if _, err := r.Register(brief, ttl); err != nil {
				t.Errorf("register %s: %v", brief.Name, err)
				return
			}
			if n%7 == 0 {
				// Replacing a steady advertisement keeps its name live.
				i := n / 7 % steady
				l, err := r.Register(&ontology.Profile{Name: leases[i].Name, Concept: "SensorService"}, 3*tick)
				if err != nil {
					t.Errorf("replace %s: %v", leases[i].Name, err)
					return
				}
				leases[i] = l
			}
			clk.Advance(tick)
		}
	}()

	// The withdrawing writer registers and deregisters in sequence.
	others.Add(1)
	go func() {
		defer others.Done()
		for k := int64(0); !stop.Load(); k++ {
			name := fmt.Sprintf("gone-%06d", k)
			if _, err := r.Register(&ontology.Profile{Name: name, Concept: "Service"}, time.Hour); err != nil {
				t.Errorf("register %s: %v", name, err)
				return
			}
			// Reading in between puts the name into a snapshot that the
			// withdrawal then has to drop.
			if !r.Has(name) {
				t.Errorf("%s missing after its registration", name)
			}
			r.Deregister(name)
			if r.Has(name) {
				t.Errorf("%s still there after its withdrawal", name)
			}
			withdrawn.Store(k + 1)
		}
	}()

	check := func(kind string, before, gone int64, got []*ontology.Profile) {
		live := 0
		for i, p := range got {
			if i > 0 && got[i-1].Name >= p.Name {
				t.Errorf("%s: %s before %s: not in name order", kind, got[i-1].Name, p.Name)
			}
			var k int64
			switch {
			case strings.HasPrefix(p.Name, "steady-"):
				live++
			case strings.HasPrefix(p.Name, "brief-"):
				if exp, _ := p.Prop("expires"); int64(exp.N) < before {
					t.Errorf("%s: %s returned %v after it lapsed", kind, p.Name, time.Duration(before-int64(exp.N)))
				}
			default:
				if _, err := fmt.Sscanf(p.Name, "gone-%d", &k); err != nil || k < gone {
					t.Errorf("%s: %s returned after it was withdrawn (%v)", kind, p.Name, err)
				}
			}
		}
		if live != steady {
			t.Errorf("%s: %d of %d renewed leases present", kind, live, steady)
		}
	}
	for i := 0; i < readers; i++ {
		others.Add(1)
		go func() {
			defer others.Done()
			broker := &Broker{Name: "b", Reg: r, Matcher: everyMatcher{}}
			semantic := &Broker{Name: "s", Reg: r, Matcher: NewSemanticMatcher(ontology.Pervasive())}
			for n := 0; !stop.Load() && !t.Failed(); n++ {
				// What had lapsed or been withdrawn before the read began
				// must not be in it.
				before, gone := elapsed(), withdrawn.Load()
				switch n % 8 {
				case 0:
					check("Profiles", before, gone, r.Profiles())
				case 1:
					var got []*ontology.Profile
					for _, m := range broker.Lookup(ontology.Request{}, 0) {
						got = append(got, m.Profile)
					}
					check("Lookup", before, gone, got)
				case 4:
					// Through the snapshot's signature index: every
					// advertisement is a Service, so all of them match.
					matches := semantic.Lookup(ontology.Request{Concept: "Service"}, 0)
					got := make([]*ontology.Profile, len(matches))
					for i, m := range matches {
						if i > 0 && rank(matches[i-1], m) >= 0 {
							t.Errorf("semantic Lookup: %s (%v) before %s (%v): not in rank order",
								matches[i-1].Profile.Name, matches[i-1].Score, m.Profile.Name, m.Score)
						}
						got[i] = m.Profile
					}
					slices.SortFunc(got, func(a, b *ontology.Profile) int { return strings.Compare(a.Name, b.Name) })
					check("semantic Lookup", before, gone, got)
				case 5, 6, 7:
					// Through the columns: only the brief services carry
					// expires, each one in the view meets the constraint,
					// and with one signature among them the preference
					// ranks them soonest first.
					req := ontology.Request{Concept: "Service", PreferLow: []string{"expires"}, Constraints: []ontology.Constraint{
						{Property: "expires", Op: ontology.OpGe, Value: ontology.Num(float64(before))}}}
					var last float64
					for i, m := range semantic.Lookup(req, 0) {
						exp, _ := m.Profile.Prop("expires")
						if !strings.HasPrefix(m.Profile.Name, "brief-") || exp.N < float64(before) || i > 0 && exp.N < last {
							t.Errorf("constrained Lookup: %s (expires %v) at rank %d, after expires %v, read at %v",
								m.Profile.Name, exp.N, i, last, before)
						}
						last = exp.N
					}
				case 2:
					if n := r.Len(); n < steady {
						t.Errorf("Len: %d, below the %d renewed leases", n, steady)
					}
				default:
					if name := fmt.Sprintf("steady-%02d", n%steady); !r.Has(name) {
						t.Errorf("Has: renewed lease %s missing", name)
					}
					if gone > 0 {
						if name := fmt.Sprintf("gone-%06d", gone-1); r.Has(name) {
							t.Errorf("Has: %s still there after it was withdrawn", name)
						}
					}
				}
			}
		}()
	}

	<-leasesDone
	stop.Store(true)
	others.Wait()
	// The first read's full rebuild is not a compaction.
	if fulls := r.Metrics.Counter("discovery_view_rebuilds_total", "kind", "full").Value(); fulls < 2 {
		t.Errorf("%v full rebuilds: the columns were never compacted", fulls)
	}
}

// SyncOnce replicates this broker's live advertisements to every peer under
// short anti-entropy leases, so lookups local to a peer can see remote
// services between syncs. Returns how many (broker, profile) replications
// were pushed.
func (b *Broker) SyncOnce(ttl time.Duration) int {
	profiles := b.Reg.Profiles()
	n := 0
	for _, p := range b.Peers() {
		for _, prof := range profiles {
			if _, err := p.Reg.Register(prof, ttl); err == nil {
				n++
			}
		}
	}
	return n
}
