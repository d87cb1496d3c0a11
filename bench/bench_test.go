package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload for 0.2 s solo and 0.2 s duo, both passes, and checks
// that nothing fails and that every metric BENCHMARK.json names is emitted,
// so the harness keeps compiling and running as internals move. The
// workloads run side by side: nothing here is a measurement.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json names %d per-layer metrics, the benchmark has %d", len(spec.PerLayer), len(perLayer))
	}

	for _, named := range spec.Workloads {
		w := workloadByName(named.Name)
		if w == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", named.Name)
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			// 0.4 s is two rounds of a 0.1 s solo slice and a 0.1 s duo slice.
			res, err := run{w, 1, 0.4, traceBoth, t.TempDir()}.measure()
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.correct() {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Problems)
			}
			if _, ok := res.EndToEnd["fail_share"]; !ok {
				t.Error("fail_share missing")
			}
			for _, m := range spec.EndToEnd {
				if got, ok := res.EndToEnd[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end metric %s is %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if got, ok := res.PerLayer[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer metric %s is %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
		})
	}
}
