package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

// printerCorpus synthesises a service population: a fraction are color
// printers, of which a fraction are cheap; plus unrelated services.
func printerCorpus(n int, seed int64) ([]*ontology.Profile, map[string]bool) {
	rng := rand.New(rand.NewSource(seed))
	truth := map[string]bool{} // services that truly satisfy the need
	var pool []*ontology.Profile
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("svc-%d", i)
		roll := rng.Float64()
		switch {
		case roll < 0.15: // color printer
			cost := rng.Float64() * 0.4
			p := &ontology.Profile{
				Name: name, Concept: "ColorPrinter",
				Interface: "Printer.printIt",
				UUID:      "uuid-" + name,
				Properties: map[string]ontology.Value{
					"color": ontology.Str("yes"),
					"cost":  ontology.Num(cost),
					"queue": ontology.Num(float64(rng.Intn(20))),
				},
			}
			pool = append(pool, p)
			if cost <= 0.10 {
				truth[name] = true
			}
		case roll < 0.35: // mono printer, same Jini interface
			pool = append(pool, &ontology.Profile{
				Name: name, Concept: "PrinterService",
				Interface: "Printer.printIt",
				UUID:      "uuid-" + name,
				Properties: map[string]ontology.Value{
					"cost":  ontology.Num(rng.Float64() * 0.1),
					"queue": ontology.Num(float64(rng.Intn(20))),
				},
			})
		default: // unrelated services
			concepts := []string{"StorageService", "DisplayService", "TemperatureSensor", "HospitalRecords"}
			pool = append(pool, &ontology.Profile{
				Name: name, Concept: concepts[rng.Intn(len(concepts))],
				Interface: "Other.op",
				UUID:      "uuid-" + name,
			})
		}
	}
	return pool, truth
}

// E6Discovery compares semantic matching against the Jini-style and
// Bluetooth-SDP-style baselines on the paper's own printer scenario.
func E6Discovery() (*Table, error) {
	t := &Table{
		ID:    "E6",
		Title: "service discovery: semantic vs syntactic matching",
		Claim: "they return exact matches and can only handle equality constraints ... not sufficient for clients to find a printer service that ... will print in color but only within a prespecified cost constraint",
		Columns: []string{
			"services", "matcher", "precision", "recall", "lookup(ms)",
		},
	}
	o := ontology.Pervasive()
	semantic := discovery.NewSemanticMatcher(o)
	jini := discovery.JiniMatcher{}
	sdp := discovery.SDPMatcher{}

	for _, n := range []int{100, 500, 2000} {
		pool, truth := printerCorpus(n, int64(n))
		if len(truth) == 0 {
			continue
		}
		// The need: a color printer within cost 0.10, short queue first.
		semReq := ontology.Request{
			Concept: "ColorPrinter",
			Constraints: []ontology.Constraint{
				{Property: "color", Op: ontology.OpEq, Value: ontology.Str("yes")},
				{Property: "cost", Op: ontology.OpLe, Value: ontology.Num(0.10)},
			},
			PreferLow: []string{"queue"},
		}
		// Jini can only name the interface; SDP can only name one UUID
		// the client somehow already knows (pick one true service).
		jiniReq := ontology.Request{Concept: "Printer.printIt"}
		var knownUUID string
		for name := range truth {
			if knownUUID == "" || "uuid-"+name < knownUUID {
				knownUUID = "uuid-" + name
			}
		}
		sdpReq := ontology.Request{Concept: knownUUID}

		score := func(m discovery.Matcher, req ontology.Request) (prec, rec float64, ms float64) {
			start := wallClock.Now()
			got := m.Match(req, pool)
			ms = float64(wallClock.Now().Sub(start).Microseconds()) / 1000
			if len(got) == 0 {
				return 0, 0, ms
			}
			hit := 0
			for _, g := range got {
				if truth[g.Profile.Name] {
					hit++
				}
			}
			return float64(hit) / float64(len(got)), float64(hit) / float64(len(truth)), ms
		}
		for _, mc := range []struct {
			m   discovery.Matcher
			req ontology.Request
		}{
			{semantic, semReq}, {jini, jiniReq}, {sdp, sdpReq},
		} {
			p, r, ms := score(mc.m, mc.req)
			t.AddRow(itoa(n), mc.m.Name(), pct(p), pct(r), f3(ms))
		}
	}
	t.Notes = "semantic matching is exact on the capability need; Jini floods the client with every printIt service; SDP retrieves only the single pre-known UUID"
	return t, nil
}

// compositionWorld builds brokers with redundant services for the paper's
// stream-mining pipeline.
func compositionWorld(nBrokers, perConcept int, ttl time.Duration, clk obs.Clock) []*discovery.Broker {
	o := ontology.Pervasive()
	m := discovery.NewSemanticMatcher(o)
	brokers := make([]*discovery.Broker, nBrokers)
	for i := range brokers {
		brokers[i] = discovery.NewBroker(fmt.Sprintf("broker-%d", i), m)
		brokers[i].Reg.Clock = clk
	}
	concepts := []string{"DecisionTreeService", "FourierSpectrumService", "DataMiningService"}
	for ci, c := range concepts {
		for j := 0; j < perConcept; j++ {
			p := &ontology.Profile{Name: fmt.Sprintf("%s-%d", c, j), Concept: c}
			b := brokers[(ci+j)%nBrokers]
			b.Reg.Register(p, ttl) //nolint:errcheck // static registration
		}
	}
	for i := range brokers {
		for j := i + 1; j < len(brokers); j++ {
			brokers[i].Peer(brokers[j], true)
		}
	}
	return brokers
}

// E7CompositionFaults sweeps per-invocation failure probability and
// compares no-retry vs re-binding, and centralized vs distributed
// coordination under coordinator loss.
func E7CompositionFaults() (*Table, error) {
	t := &Table{
		ID:    "E7",
		Title: "composition fault tolerance",
		Claim: "if a network service breaks down, the architecture should be able to detect this and resort to fault control mechanisms ... degrade gracefully",
		Columns: []string{
			"fail prob", "policy", "success", "mean rebinds",
		},
	}
	o := ontology.Pervasive()
	lib := composition.StreamMiningLibrary()
	plan, err := lib.Plan("mine-stream")
	if err != nil {
		return nil, err
	}
	const trials = 100
	for _, pFail := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		for _, pol := range []struct {
			name     string
			attempts int
		}{
			{"no-retry", 1},
			{"rebind(4)", 4},
		} {
			rng := rand.New(rand.NewSource(int64(pFail*1000) + int64(pol.attempts)))
			succ, rebinds := 0, 0
			for trial := 0; trial < trials; trial++ {
				brokers := compositionWorld(1, 4, time.Hour, nil)
				e := &composition.Engine{
					Brokers: brokers, Onto: o,
					MaxAttempts: pol.attempts,
					Invoke: func(*ontology.Profile, composition.Step) error {
						if rng.Float64() < pFail {
							return fmt.Errorf("injected failure")
						}
						return nil
					},
				}
				exec := e.Execute(plan)
				if exec.Succeeded {
					succ++
				}
				rebinds += exec.Rebinds()
			}
			t.AddRow(f3(pFail), pol.name, pct(float64(succ)/trials), f3(float64(rebinds)/trials))
		}
	}

	// Coordinator loss: centralized vs distributed.
	for _, mode := range []composition.Mode{composition.Centralized, composition.Distributed} {
		succ := 0
		for trial := 0; trial < trials; trial++ {
			brokers := compositionWorld(3, 3, time.Hour, nil)
			e := &composition.Engine{
				Brokers: brokers, Onto: o, Mode: mode,
				BrokerDown: map[string]bool{"broker-0": true},
				Invoke:     func(*ontology.Profile, composition.Step) error { return nil },
			}
			if exec := e.Execute(plan); exec.Succeeded {
				succ++
			}
		}
		t.AddRow("coord down", mode.String(), pct(float64(succ)/trials), "0")
	}
	t.Notes = "re-binding holds success near 100% until most candidates fail; distributed coordination survives broker loss that kills the centralized architecture"
	return t, nil
}

// E8DynamicComposition sweeps service lifetime and compares reactive vs
// proactive binding in a world of short-lived services.
func E8DynamicComposition() (*Table, error) {
	t := &Table{
		ID:    "E8",
		Title: "composition with short-lived services",
		Claim: "service composition should be able to take advantage of different short-lived services which stay in the vicinity for a finite amount of time and then disappear",
		Columns: []string{
			"mean lifetime(s)", "strategy", "success", "mean latency(s)",
		},
	}
	o := ontology.Pervasive()
	lib := composition.StreamMiningLibrary()
	plan, err := lib.Plan("mine-stream")
	if err != nil {
		return nil, err
	}
	concepts := []string{"DecisionTreeService", "FourierSpectrumService", "DataMiningService"}
	const trials = 60
	for _, lifetime := range []float64{2, 5, 15, 60} {
		for _, strat := range []composition.BindStrategy{composition.Reactive, composition.Proactive} {
			rng := rand.New(rand.NewSource(int64(lifetime*10) + int64(strat)))
			succ := 0
			latency := 0.0
			for trial := 0; trial < trials; trial++ {
				// Virtual clock: services registered with exponential
				// lifetimes; the composition starts after a random
				// delay so some leases have already expired.
				clock := obs.NewFakeClock()
				brokers := compositionWorld(1, 0, time.Hour, clock)
				for _, c := range concepts {
					for j := 0; j < 4; j++ {
						life := rng.ExpFloat64() * lifetime
						p := &ontology.Profile{Name: fmt.Sprintf("%s-%d", c, j), Concept: c}
						brokers[0].Reg.Register(p, time.Duration(life*float64(time.Second))) //nolint:errcheck
					}
				}
				e := &composition.Engine{
					Brokers: brokers, Onto: o, Strategy: strat,
					DiscoveryCost: 0.05, InvokeCost: 0.2,
					Invoke: func(*ontology.Profile, composition.Step) error { return nil },
				}
				if strat == composition.Proactive {
					e.Prebind(plan)
				}
				// A fixed 8 s passes between planning and execution, so
				// shorter-lived services are likelier to be gone.
				clock.Advance(8 * time.Second)
				exec := e.Execute(plan)
				if exec.Succeeded {
					succ++
					latency += exec.Latency
				}
			}
			meanLat := "-"
			if succ > 0 {
				meanLat = f3(latency / float64(succ))
			}
			t.AddRow(f3(lifetime), strat.String(), pct(float64(succ)/trials), meanLat)
		}
	}
	t.Notes = "short lifetimes sink availability for both strategies; proactive binding saves discovery latency when services persist but pays fallback lookups when its cache goes stale"
	return t, nil
}
