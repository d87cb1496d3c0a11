package pervasivegrid_test

// One benchmark per experiment in the reproduction suite (DESIGN.md
// experiment index). Each iteration regenerates the experiment's full
// table, so `go test -bench=.` reproduces every figure/table of
// EXPERIMENTS.md and reports how long each costs. Custom metrics surface
// each experiment's headline number so regressions in the *shape* of a
// result (not just its runtime) are visible in benchmark output.

import (
	"strconv"
	"strings"
	"testing"

	"pervasivegrid/internal/core"
	"pervasivegrid/internal/experiments"
	"pervasivegrid/internal/pde"
	"pervasivegrid/internal/sensornet"
)

// runTable drives one experiment under the benchmark loop and returns the
// final table for metric extraction.
func runTable(b *testing.B, run func() (*experiments.Table, error)) *experiments.Table {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	return last
}

// metric parses a numeric cell (tolerating % and x suffixes).
func metric(b *testing.B, tb *experiments.Table, match func([]string) bool, col string) float64 {
	b.Helper()
	ci := -1
	for i, c := range tb.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		b.Fatalf("column %q missing", col)
	}
	for _, row := range tb.Rows {
		if match(row) {
			s := strings.TrimSuffix(strings.TrimSuffix(row[ci], "%"), "x")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				b.Fatalf("parse %q: %v", row[ci], err)
			}
			return v
		}
	}
	b.Fatal("no matching row")
	return 0
}

// BenchmarkFigure1Scenario regenerates E1: the burning-building scenario
// with all four query types end-to-end.
func BenchmarkFigure1Scenario(b *testing.B) {
	tb := runTable(b, experiments.E1Figure1)
	v := metric(b, tb, func(r []string) bool { return r[0] == "simple" }, "value")
	b.ReportMetric(v, "near-fire-°C")
}

// BenchmarkSolutionModels regenerates E2: energy/latency of the four
// solution models across network sizes.
func BenchmarkSolutionModels(b *testing.B) {
	tb := runTable(b, experiments.E2SolutionModels)
	direct := metric(b, tb, func(r []string) bool { return r[0] == "400" && r[1] == "direct" }, "energy(J)")
	tree := metric(b, tb, func(r []string) bool { return r[0] == "400" && r[1] == "tree" }, "energy(J)")
	b.ReportMetric(direct/tree, "direct/tree-energy@400")
}

// BenchmarkNetworkLifetime regenerates E3: rounds until first node death
// per collection strategy.
func BenchmarkNetworkLifetime(b *testing.B) {
	tb := runTable(b, experiments.E3NetworkLifetime)
	tree := metric(b, tb, func(r []string) bool { return r[0] == "tree" }, "rounds to first death")
	direct := metric(b, tb, func(r []string) bool { return r[0] == "direct" }, "rounds to first death")
	b.ReportMetric(tree/direct, "tree/direct-lifetime")
}

// BenchmarkComplexQueryCrossover regenerates E4: base-station vs grid
// response time across PDE sizes.
func BenchmarkComplexQueryCrossover(b *testing.B) {
	tb := runTable(b, experiments.E4ComplexCrossover)
	base := metric(b, tb, func(r []string) bool { return r[0] == "129x129" }, "base time(s)")
	grid := metric(b, tb, func(r []string) bool { return r[0] == "129x129" }, "grid time(s)")
	b.ReportMetric(base/grid, "base/grid-time@129")
}

// BenchmarkDecisionMaker regenerates E5: learned selection vs oracle and
// static policies.
func BenchmarkDecisionMaker(b *testing.B) {
	tb := runTable(b, experiments.E5DecisionMaker)
	learned := metric(b, tb, func(r []string) bool { return r[0] == "learned k-NN (300 obs)" }, "oracle agreement")
	b.ReportMetric(learned, "learned-agreement-%")
}

// BenchmarkDiscovery regenerates E6: semantic vs Jini vs SDP matching.
func BenchmarkDiscovery(b *testing.B) {
	tb := runTable(b, experiments.E6Discovery)
	sem := metric(b, tb, func(r []string) bool { return r[0] == "2000" && r[1] == "semantic" }, "recall")
	jini := metric(b, tb, func(r []string) bool { return r[0] == "2000" && r[1] == "jini" }, "precision")
	b.ReportMetric(sem, "semantic-recall-%@2000")
	b.ReportMetric(jini, "jini-precision-%@2000")
}

// BenchmarkCompositionFaultTolerance regenerates E7: success rate under
// failure injection, with and without re-binding.
func BenchmarkCompositionFaultTolerance(b *testing.B) {
	tb := runTable(b, experiments.E7CompositionFaults)
	rebind := metric(b, tb, func(r []string) bool { return r[0] == "0.2" && r[1] == "rebind(4)" }, "success")
	naive := metric(b, tb, func(r []string) bool { return r[0] == "0.2" && r[1] == "no-retry" }, "success")
	b.ReportMetric(rebind, "rebind-success-%@p0.2")
	b.ReportMetric(naive, "noretry-success-%@p0.2")
}

// BenchmarkDynamicComposition regenerates E8: availability vs service
// lifetime, reactive vs proactive.
func BenchmarkDynamicComposition(b *testing.B) {
	tb := runTable(b, experiments.E8DynamicComposition)
	short := metric(b, tb, func(r []string) bool { return r[0] == "2" && r[1] == "reactive" }, "success")
	long := metric(b, tb, func(r []string) bool { return r[0] == "60" && r[1] == "reactive" }, "success")
	b.ReportMetric(long-short, "availability-cliff-%pts")
}

// BenchmarkPDESolver regenerates E9: solver iteration counts and parallel
// timing on the grid substrate.
func BenchmarkPDESolver(b *testing.B) {
	tb := runTable(b, experiments.E9PDEScaling)
	jac := metric(b, tb, func(r []string) bool { return r[0] == "129x129" && r[1] == "jacobi" && r[2] == "1" }, "iters")
	sor := metric(b, tb, func(r []string) bool { return r[0] == "129x129" && r[1] == "sor" && r[2] == "1" }, "iters")
	b.ReportMetric(jac/sor, "jacobi/sor-iters@129")
}

// BenchmarkStreamMining regenerates E10: Fourier-ensemble accuracy and
// communication savings vs centralisation.
func BenchmarkStreamMining(b *testing.B) {
	tb := runTable(b, experiments.E10StreamMining)
	acc := metric(b, tb, func(r []string) bool { return r[0] == "16" }, "ensemble acc")
	save := metric(b, tb, func(r []string) bool { return r[0] == "16" }, "saving")
	b.ReportMetric(acc, "ensemble-acc-%@k16")
	b.ReportMetric(save, "comm-saving-x@k16")
}

// BenchmarkQueryCaching regenerates E11: reactive vs continuous vs cached
// service of a high-frequency query.
func BenchmarkQueryCaching(b *testing.B) {
	tb := runTable(b, experiments.E11Caching)
	reactive := metric(b, tb, func(r []string) bool { return strings.HasPrefix(r[0], "reactive") }, "energy(J)")
	cached := metric(b, tb, func(r []string) bool { return strings.HasPrefix(r[0], "cached") }, "energy(J)")
	b.ReportMetric(reactive/cached, "reactive/cached-energy")
}

// ---- query handler path (DESIGN.md "Query handler path") ----
//
// The per-layer cross-check for the query_mix workload of bench/: the same
// 10×10 deployment bench/node.go builds (result cache off), driven through
// Runtime.Submit with no agent platform or socket in the way. Run at a fixed
// iteration count, e.g. `go test -run '^$' -bench 'Submit|Flood100|HopTree100|
// SolveSOR33' -benchtime 2000x .`

// queryRuntime is bench/node.go's runtimeConfig: no sensor noise, a fire that
// neither grows nor spreads, batteries that outlast the run.
func queryRuntime(b testing.TB) *core.Runtime {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Net.InitialEnergy = 1e9
	field := sensornet.NewTemperatureField(20)
	field.Ignite(sensornet.Hotspot{
		Center: sensornet.Position{X: cfg.Net.Width / 2, Y: cfg.Net.Height / 2},
		Peak:   500, Radius: 15, Start: -1,
	})
	cfg.Field = field
	rt, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rt.AssignRooms(2, 2)
	return rt
}

func benchSubmit(b *testing.B, queries []string) {
	rt := queryRuntime(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Submit(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitPoint is one single-sensor read: install by unicast, read
// back by unicast.
func BenchmarkSubmitPoint(b *testing.B) {
	queries := make([]string, 100)
	for id := range queries {
		queries[id] = "SELECT temp FROM sensors WHERE sensor = " + strconv.Itoa(id)
	}
	benchSubmit(b, queries)
}

// BenchmarkSubmitAggregate cycles the aggregate shapes query_mix draws:
// plain, by room, grouped, by reading.
func BenchmarkSubmitAggregate(b *testing.B) {
	benchSubmit(b, []string{
		"SELECT avg(temp) FROM sensors",
		"SELECT max(temp) FROM sensors WHERE room = 'r1'",
		"SELECT count(temp) FROM sensors GROUP BY room",
		"SELECT avg(temp) FROM sensors WHERE temp > 25",
	})
}

// BenchmarkSubmitComplex is the temperature distribution: flood, direct
// collection, a 33×33 SOR solve.
func BenchmarkSubmitComplex(b *testing.B) {
	benchSubmit(b, []string{"SELECT tempdist(temp) FROM sensors"})
}

// BenchmarkFlood100 installs a 40-byte query in the 10×10 deployment.
func BenchmarkFlood100(b *testing.B) {
	nw := queryRuntime(b).Net
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sensornet.Flood(nw, sensornet.BaseStationID, 40); res.Reached != 100 {
			b.Fatalf("reached %d", res.Reached)
		}
	}
}

// BenchmarkHopTree100 reads the hop tree of the 10×10 deployment: unchanged
// between reads, and after a death (each iteration kills or revives one
// sensor, so every read sees a different alive set).
func BenchmarkHopTree100(b *testing.B) {
	b.Run("cached", func(b *testing.B) {
		nw := queryRuntime(b).Net
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(nw.HopTree()) != 100 {
				b.Fatal("tree lost a sensor")
			}
		}
	})
	b.Run("after-death", func(b *testing.B) {
		nw := queryRuntime(b).Net
		victim := nw.Sensors[55]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			victim.Energy = float64(i % 2)
			if len(nw.HopTree()) != 99+i%2 {
				b.Fatal("tree does not follow the alive set")
			}
		}
	})
}

// BenchmarkSolveSOR33 is the solve inside a tempdist query, with the one
// worker the base station gives it and with the sixteen a grid resource may.
func BenchmarkSolveSOR33(b *testing.B) {
	for _, workers := range []int{1, 16} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g, err := pde.NewGrid2D(33, 33, 100.0/32)
				if err != nil {
					b.Fatal(err)
				}
				g.SetBoundary(20)
				g.Pin(16, 16, 500)
				b.StartTimer()
				res, err := pde.SolveSOR(g, pde.Options{Tol: 1e-6, Workers: workers})
				if err != nil || !res.Converged {
					b.Fatalf("solve: %v %+v", err, res)
				}
			}
		})
	}
}
