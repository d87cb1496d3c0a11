package pervasivegrid_test

// Hot-path micro-benchmark for adaptive re-composition: one iteration is
// a full adaptive conversation whose second step loses every provider, so
// each Run exercises the re-plan path — ranked-plan selection, handoff
// dataflow validation against the completed prefix, and migration onto
// the degraded alternative. Run it at a fixed iteration count on both
// commits when comparing.

import (
	"fmt"
	"testing"
	"time"

	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/ontology"
)

func BenchmarkReplan(b *testing.B) {
	o := ontology.Pervasive()
	broker := discovery.NewBroker("b0", discovery.NewSemanticMatcher(o))
	for _, c := range []string{"IngestService", "MineService", "ApproxService"} {
		for j := 0; j < 2; j++ {
			p := &ontology.Profile{Name: fmt.Sprintf("%s-%d", c, j), Concept: c}
			if _, err := broker.Reg.Register(p, time.Hour); err != nil {
				b.Fatal(err)
			}
		}
	}
	lib := composition.NewLibrary()
	for _, task := range []*composition.Task{
		{Name: "analyse", Subtasks: []string{"ingest", "mine"},
			Alternatives: [][]string{{"ingest", "approx"}}},
		{Name: "ingest", Concept: "IngestService",
			Inputs: []string{"Raw"}, Outputs: []string{"IngestedData"}},
		{Name: "mine", Concept: "MineService",
			Inputs: []string{"IngestedData"}, Outputs: []string{"Result"}},
		{Name: "approx", Concept: "ApproxService",
			Inputs: []string{"IngestedData"}, Outputs: []string{"Result"}},
	} {
		if err := lib.Define(task); err != nil {
			b.Fatal(err)
		}
	}
	// Every MineService invocation fails, so each Run performs exactly one
	// mid-conversation re-plan onto the approx alternative.
	e := &composition.Engine{
		Brokers: []*discovery.Broker{broker},
		Onto:    o,
		Invoke: func(p *ontology.Profile, s composition.Step) error {
			if s.Task.Concept == "MineService" {
				return fmt.Errorf("dead")
			}
			return nil
		},
	}
	a := &composition.Adaptive{Engine: e, Library: lib, Goal: "analyse", Initial: []string{"Raw"}}
	a.Start()
	defer a.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec := a.Run()
		if !exec.Succeeded || exec.Replans != 1 {
			b.Fatalf("run %d: succeeded=%v replans=%d", i, exec.Succeeded, exec.Replans)
		}
	}
}
