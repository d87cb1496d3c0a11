package sensornet

import (
	"math"
	"testing"
)

// collectConfig returns a connected 5x5 grid with a uniform field.
func collectNetwork(t *testing.T, val float64) *Network {
	t.Helper()
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	if !nw.Connected() {
		t.Fatal("test network must be connected")
	}
	nw.SetField(UniformField(val), 0)
	return nw
}

func TestDirectCollectAvg(t *testing.T) {
	nw := collectNetwork(t, 42)
	res, err := DirectStrategy{}.Collect(nw, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 25 || res.Selected != 25 {
		t.Fatalf("coverage = %d/%d, want 25/25", res.Coverage, res.Selected)
	}
	if math.Abs(res.Value-42) > 1e-9 {
		t.Fatalf("avg = %v, want 42", res.Value)
	}
	if len(res.Readings) != 25 {
		t.Fatalf("raw readings = %d, want 25", len(res.Readings))
	}
	if res.Latency <= 0 || res.Messages < 25 || res.EnergyJ <= 0 {
		t.Fatalf("implausible round metrics: %+v", res)
	}
}

func TestTreeCollectMatchesDirectValue(t *testing.T) {
	for _, agg := range []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg} {
		nwd := collectNetwork(t, 17)
		nwt := collectNetwork(t, 17)
		d, err := DirectStrategy{}.Collect(nwd, CollectRequest{Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := TreeStrategy{}.Collect(nwt, CollectRequest{Agg: agg})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.Value-tr.Value) > 1e-9 {
			t.Fatalf("%v: direct=%v tree=%v", agg, d.Value, tr.Value)
		}
		if tr.Coverage != d.Coverage {
			t.Fatalf("%v: coverage direct=%d tree=%d", agg, d.Coverage, tr.Coverage)
		}
	}
}

func TestTreeCheaperThanDirect(t *testing.T) {
	// The TAG claim: in-network aggregation ships fewer bytes and less
	// energy than centralizing raw readings, on a multi-hop topology.
	nwd := collectNetwork(t, 10)
	nwt := collectNetwork(t, 10)
	d, err := DirectStrategy{}.Collect(nwd, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TreeStrategy{}.Collect(nwt, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Messages >= d.Messages {
		t.Fatalf("tree messages %d, direct %d: aggregation should send fewer", tr.Messages, d.Messages)
	}
	if tr.EnergyJ >= d.EnergyJ {
		t.Fatalf("tree energy %g, direct %g: aggregation should cost less", tr.EnergyJ, d.EnergyJ)
	}
}

func TestClusterCollect(t *testing.T) {
	nw := collectNetwork(t, 33)
	cs := &ClusterStrategy{}
	res, err := cs.Collect(nw, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 25 {
		t.Fatalf("coverage = %d, want 25", res.Coverage)
	}
	if math.Abs(res.Value-33) > 1e-9 {
		t.Fatalf("avg = %v, want 33", res.Value)
	}
}

func TestCollectWithPredicate(t *testing.T) {
	nw := collectNetwork(t, 5)
	// Tag the left half as room 101.
	for _, s := range nw.Sensors {
		if s.Pos.X < 50 {
			s.Room = "101"
		}
	}
	sel := func(n *Node) bool { return n.Room == "101" }
	res, err := TreeStrategy{}.Collect(nw, CollectRequest{Agg: AggCount, Select: sel})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range nw.Sensors {
		if s.Room == "101" {
			want++
		}
	}
	if int(res.Value) != want || res.Coverage != want {
		t.Fatalf("count = %v coverage=%d, want %d", res.Value, res.Coverage, want)
	}
}

func TestCollectNoMatchingSensors(t *testing.T) {
	nw := collectNetwork(t, 5)
	sel := func(n *Node) bool { return false }
	if _, err := (DirectStrategy{}).Collect(nw, CollectRequest{Agg: AggAvg, Select: sel}); err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestCollectSurvivesDeadSubtree(t *testing.T) {
	nw := collectNetwork(t, 9)
	// Kill a handful of nodes; the round must still complete with
	// reduced coverage (graceful degradation).
	nw.Node(12).Energy = 0
	nw.Node(17).Energy = 0
	res, err := TreeStrategy{}.Collect(nw, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage == 0 || res.Coverage >= 25 {
		t.Fatalf("coverage = %d, want partial (0 < c < 25)", res.Coverage)
	}
	if math.Abs(res.Value-9) > 1e-9 {
		t.Fatalf("avg over survivors = %v, want 9", res.Value)
	}
}

func TestRepeatedRoundsDrainEnergy(t *testing.T) {
	nw := collectNetwork(t, 1)
	tr := TreeStrategy{}
	prev := nw.TotalEnergyUsed()
	for i := 0; i < 5; i++ {
		if _, err := tr.Collect(nw, CollectRequest{Agg: AggSum, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
		used := nw.TotalEnergyUsed()
		if used <= prev {
			t.Fatalf("round %d did not drain energy", i)
		}
		prev = used
	}
}

func TestClusterRotationSpreadsLoad(t *testing.T) {
	nw := collectNetwork(t, 1)
	cs := &ClusterStrategy{}
	for i := 0; i < 20; i++ {
		if _, err := cs.Collect(nw, CollectRequest{Agg: AggAvg, Time: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// With rotation no single sensor should carry wildly more TX than the
	// median: compare max to min spend.
	var max, min float64 = 0, math.Inf(1)
	for _, s := range nw.Sensors {
		used := s.InitialEnergy - s.Energy
		if used > max {
			max = used
		}
		if used < min {
			min = used
		}
	}
	if min == 0 {
		t.Fatal("some sensor never transmitted")
	}
	if max/min > 50 {
		t.Fatalf("load imbalance max/min = %.1f, rotation should spread head duty", max/min)
	}
}

func TestFloodReachesAll(t *testing.T) {
	nw := collectNetwork(t, 0)
	res := Flood(nw, BaseStationID, 20)
	if res.Reached != 25 {
		t.Fatalf("flood reached %d, want 25", res.Reached)
	}
	if res.Messages < 25 {
		t.Fatalf("flood messages = %d, want >= one per node", res.Messages)
	}
	if res.Latency <= 0 {
		t.Fatal("flood latency must be positive")
	}
}

func TestUnicastToBase(t *testing.T) {
	nw := collectNetwork(t, 0)
	res, err := Unicast(nw, 24, 10) // far corner, multi-hop
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 1 {
		t.Fatal("unicast did not deliver")
	}
	if res.Messages < 2 {
		t.Fatalf("messages = %d, want multi-hop", res.Messages)
	}
	if _, err := Unicast(nw, 99, 10); err == nil {
		t.Fatal("unicast from unknown node should error")
	}
}

func TestStrategyByName(t *testing.T) {
	for _, name := range []string{"direct", "tree", "cluster"} {
		s, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != name {
			t.Fatalf("%q -> %q", name, s.Name())
		}
	}
	if _, err := StrategyByName("warp"); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

func benchCollect(b *testing.B, strat Strategy) {
	cfg := DefaultConfig()
	cfg.InitialEnergy = 1e9 // never die during the bench
	nw := NewGridNetwork(cfg, 10, 10)
	nw.SetField(UniformField(25), 0.5)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := strat.Collect(nw, CollectRequest{Agg: AggAvg, Time: float64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectDirect100(b *testing.B)  { benchCollect(b, DirectStrategy{}) }
func BenchmarkCollectTree100(b *testing.B)    { benchCollect(b, TreeStrategy{}) }
func BenchmarkCollectCluster100(b *testing.B) { benchCollect(b, &ClusterStrategy{}) }

func BenchmarkFlood400(b *testing.B) {
	cfg := DefaultConfig()
	cfg.InitialEnergy = 1e9
	nw := NewGridNetwork(cfg, 20, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Flood(nw, BaseStationID, 40); res.Reached == 0 {
			b.Fatal("flood reached nobody")
		}
	}
}

func TestFloodOnDisconnectedNetwork(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 5 // nobody hears anybody
	nw := NewGridNetwork(cfg, 3, 3)
	res := Flood(nw, BaseStationID, 20)
	if res.Reached != 0 {
		t.Fatalf("reached %d on a disconnected network", res.Reached)
	}
}

func TestCollectFromDeadOrigin(t *testing.T) {
	nw := collectNetwork(t, 5)
	for _, s := range nw.Sensors {
		s.Energy = 0
	}
	for _, name := range []string{"direct", "tree", "cluster"} {
		strat, err := StrategyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := strat.Collect(nw, CollectRequest{Agg: AggAvg}); err == nil {
			t.Fatalf("%s: collection over a dead network should fail", name)
		}
	}
}
