package sensornet

import "testing"

// cityStats is a post-run summary of a CitySim.
type cityStats struct {
	Nodes    int
	Alive    int
	Ticks    int
	Samples  uint64
	EnergyJ  float64 // joules drained across the city
	Executed uint64  // event handlers run by the sharded kernel
	Base     CityAggregate
}

// statsOf summarises the run so far. Call only between Runs.
func statsOf(cs *CitySim) cityStats {
	st := cityStats{Nodes: cs.Cfg.Nodes, Ticks: cs.ticks, Executed: cs.Kernel.Executed(), Base: cs.base}
	for _, sh := range cs.shards {
		for k := range sh.nodes {
			n := &sh.nodes[k]
			st.Samples += uint64(n.samples)
			st.EnergyJ += cs.Cfg.InitialEnergy - n.energy
			if n.energy > 0 {
				st.Alive++
			}
		}
	}
	return st
}

// cityDigest runs a CitySim to completion and returns its digest + stats.
func cityDigest(t testing.TB, nodes, workers, ticks int, seed int64) (uint64, cityStats) {
	t.Helper()
	cs, err := NewCitySim(CityConfig{
		Nodes:   nodes,
		Shards:  8,
		Workers: workers,
		Seed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Run(ticks); err != nil {
		t.Fatal(err)
	}
	return cs.Digest(), statsOf(cs)
}

// TestCitySimDeterministicAcrossWorkers is the sharded-loop determinism
// gate: the same seed must produce byte-identical aggregate state whether
// the shards run on one worker or eight. Short mode runs 10k nodes (and
// stays `-race`-clean there); the full path scales the same check to a
// 100k-node city.
func TestCitySimDeterministicAcrossWorkers(t *testing.T) {
	nodes, ticks := 10_000, 30
	if !testing.Short() {
		nodes, ticks = 100_000, 20
	}
	d1, st1 := cityDigest(t, nodes, 1, ticks, 42)
	d8, st8 := cityDigest(t, nodes, 8, ticks, 42)
	if d1 != d8 {
		t.Fatalf("digest diverged across worker counts: workers=1 %x, workers=8 %x", d1, d8)
	}
	if st1 != st8 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st8)
	}
	if want := uint64(nodes) * uint64(ticks); st1.Samples != want {
		t.Fatalf("samples = %d, want %d (every node, every tick)", st1.Samples, want)
	}
	if st1.Base.Reports == 0 || st1.Base.Samples == 0 {
		t.Fatalf("base station merged no reports: %+v", st1.Base)
	}
	// A different seed must actually change the state.
	d2, _ := cityDigest(t, nodes, 8, ticks, 43)
	if d2 == d1 {
		t.Fatal("digest insensitive to seed")
	}
}

func TestCitySimRepeatedRunsAccumulate(t *testing.T) {
	cs, err := NewCitySim(CityConfig{Nodes: 1000, Workers: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Run(5); err != nil {
		t.Fatal(err)
	}
	mid := statsOf(cs)
	if err := cs.Run(5); err != nil {
		t.Fatal(err)
	}
	end := statsOf(cs)
	if mid.Samples != 5000 || end.Samples != 10000 {
		t.Fatalf("samples mid=%d end=%d, want 5000/10000", mid.Samples, end.Samples)
	}
	if end.EnergyJ <= mid.EnergyJ {
		t.Fatalf("energy did not drain: mid=%g end=%g", mid.EnergyJ, end.EnergyJ)
	}

	// Split runs must equal one continuous run with the same seed.
	one, err := NewCitySim(CityConfig{Nodes: 1000, Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := one.Run(10); err != nil {
		t.Fatal(err)
	}
	if one.Digest() != cs.Digest() {
		t.Fatal("split Run(5)+Run(5) diverged from Run(10)")
	}
}

func TestCitySimEnergyDeathStopsSampling(t *testing.T) {
	cs, err := NewCitySim(CityConfig{
		Nodes: 100, Workers: 2, Seed: 1,
		InitialEnergy: 3e-4, SampleCost: 1e-4, // dead after 3 samples
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Run(10); err != nil {
		t.Fatal(err)
	}
	st := statsOf(cs)
	if st.Alive != 0 {
		t.Fatalf("alive = %d, want 0 after batteries drained", st.Alive)
	}
	if st.Samples != 300 {
		t.Fatalf("samples = %d, want 300 (3 per node before death)", st.Samples)
	}
}

func TestCitySimRejectsEmptyPopulation(t *testing.T) {
	if _, err := NewCitySim(CityConfig{}); err == nil {
		t.Fatal("zero-node city accepted")
	}
}

// BenchmarkCityTick measures the sharded loop's sustained tick rate at
// city scale — the number EXPERIMENTS.md quotes for the 100k-node claim.
func BenchmarkCityTick100k(b *testing.B) {
	cs, err := NewCitySim(CityConfig{Nodes: 100_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := cs.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

func TestCitySimRunZeroTicksIsNoop(t *testing.T) {
	cs, err := NewCitySim(CityConfig{Nodes: 16, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := cs.Digest()
	if err := cs.Run(0); err != nil {
		t.Fatal(err)
	}
	if cs.Digest() != before {
		t.Fatal("Run(0) mutated state")
	}
}
