package sensornet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pervasivegrid/internal/simevent"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 100, 100
	cfg.RadioRange = 30
	return cfg
}

func TestGridTopologyNeighbors(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	if len(nw.Sensors) != 25 {
		t.Fatalf("sensors = %d, want 25", len(nw.Sensors))
	}
	// Grid spacing is 20 m with range 30 m: an interior node sees its 4
	// orthogonal neighbors plus 4 diagonals (28.3 m).
	center := nw.Node(12) // row 2, col 2
	if got := len(center.Neighbors); got != 8 {
		t.Fatalf("interior neighbors = %d, want 8", got)
	}
	// Corner node (0,0 cell) sees 3 sensor neighbors; base at (50,0) is
	// 40+ m away, out of range.
	corner := nw.Node(0)
	if got := len(corner.Neighbors); got != 3 {
		t.Fatalf("corner neighbors = %d, want 3", got)
	}
}

func TestConnectivity(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	if !nw.Connected() {
		t.Fatal("5x5 grid with 30m range should be connected")
	}
	for _, s := range nw.Sensors {
		if d := nw.Depths()[s.ID]; d < 1 {
			t.Fatalf("sensor %d depth = %d, want >= 1", s.ID, d)
		}
	}
}

func TestDisconnectedNetwork(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 5 // too short to connect 20m-spaced grid
	nw := NewGridNetwork(cfg, 3, 3)
	if nw.Connected() {
		t.Fatal("sparse network should be disconnected")
	}
	if len(nw.HopTree()) != 0 {
		t.Fatal("no sensor should be reachable")
	}
}

func TestSendChargesEnergyAndCounts(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 60 // 2x2 grid spacing is 50 m
	nw := NewGridNetwork(cfg, 2, 2)
	a, b := nw.Node(0), nw.Node(1)
	if !nw.InRange(0, 1) {
		t.Fatal("adjacent grid nodes should be in range")
	}
	delivered := false
	if !nw.Send(0, 1, 10, func(_, _ NodeID, at simevent.Time) { delivered = true }, 0) {
		t.Fatal("Send failed")
	}
	nw.Kernel.RunAll()
	if !delivered {
		t.Fatal("delivery callback never ran")
	}
	if a.Energy >= a.InitialEnergy {
		t.Fatal("sender energy not drained")
	}
	if b.Energy >= b.InitialEnergy {
		t.Fatal("receiver energy not drained")
	}
	st := nw.Stats()
	if st.Messages != 1 || st.Deliveries != 1 {
		t.Fatalf("stats = %+v, want 1 message, 1 delivery", st)
	}
	wantBytes := 10 + cfg.HeaderBytes
	if st.Bytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", st.Bytes, wantBytes)
	}
	// Energy accounting matches the model.
	d := a.Pos.Distance(b.Pos)
	want := cfg.Energy.TxCost(wantBytes, d) + cfg.Energy.RxCost(wantBytes)
	if math.Abs(st.EnergyJ-want) > 1e-15 {
		t.Fatalf("energy = %g, want %g", st.EnergyJ, want)
	}
}

func TestSendOutOfRangeFails(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	// Node 0 and node 24 are opposite corners, far out of range.
	if nw.Send(0, 24, 10, nil, 0) {
		t.Fatal("out-of-range send should fail")
	}
	if nw.Stats().Dropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestDeadNodeCannotSendOrReceive(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 60
	nw := NewGridNetwork(cfg, 2, 2)
	nw.Node(0).Energy = 0
	if nw.Send(0, 1, 10, nil, 0) {
		t.Fatal("dead sender should fail")
	}
	if nw.Send(1, 0, 10, nil, 0) {
		t.Fatal("send to dead receiver should fail")
	}
}

func TestBroadcastReachesAliveNeighbors(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 40 // 3x3 grid spacing is 33.3 m
	nw := NewGridNetwork(cfg, 3, 3)
	center := nw.Node(4)
	nw.Node(1).Energy = 0 // kill one neighbor
	var got []NodeID
	reached := nw.Broadcast(4, 10, func(to, _ NodeID, at simevent.Time) { got = append(got, to) })
	nw.Kernel.RunAll()
	if reached != len(center.Neighbors)-1 {
		t.Fatalf("reached = %d, want %d (one neighbor dead)", reached, len(center.Neighbors)-1)
	}
	if len(got) != reached {
		t.Fatalf("callbacks = %d, want %d", len(got), reached)
	}
	for _, id := range got {
		if id == 1 {
			t.Fatal("dead neighbor received broadcast")
		}
	}
}

func TestHopTreeExcludesDeadNodes(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 40
	nw := NewGridNetwork(cfg, 3, 3)
	before := nw.HopTree()
	if len(before) != 9 {
		t.Fatalf("reachable = %d, want 9", len(before))
	}
	// Kill the bottom row (adjacent to base at (50,0)): the rest must
	// still route around if connectivity allows.
	nw.Node(0).Energy = 0
	nw.Node(1).Energy = 0
	nw.Node(2).Energy = 0
	after := nw.HopTree()
	for id := range after {
		if !nw.Node(id).Alive() {
			t.Fatalf("dead node %d in hop tree", id)
		}
	}
}

func TestComputeCharges(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 2, 2)
	e0 := nw.Node(0).Energy
	nw.Compute(0, 1000)
	if nw.Node(0).Energy >= e0 {
		t.Fatal("compute did not drain energy")
	}
	if nw.Stats().ComputeOps != 1000 {
		t.Fatalf("compute ops = %v, want 1000", nw.Stats().ComputeOps)
	}
	// Base station computation is free and uncounted.
	nw.Compute(BaseStationID, 1e9)
	if nw.Stats().ComputeOps != 1000 {
		t.Fatal("base-station compute should not count against sensors")
	}
}

func TestChargeIdle(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 2, 2)
	e0 := nw.TotalEnergyUsed()
	nw.ChargeIdle(10)
	if nw.TotalEnergyUsed() <= e0 {
		t.Fatal("idle charge did not drain energy")
	}
}

func TestTemperatureFieldHotspot(t *testing.T) {
	f := NewTemperatureField(20)
	f.Ignite(Hotspot{Center: Position{X: 50, Y: 50}, Peak: 400, Radius: 10, Start: 5, GrowthRate: 1})
	if got := f.At(Position{X: 50, Y: 50}, 0); got != 20 {
		t.Fatalf("before ignition temp = %v, want ambient 20", got)
	}
	late := f.At(Position{X: 50, Y: 50}, 100)
	if late < 400 {
		t.Fatalf("center temp after growth = %v, want >= 400", late)
	}
	far := f.At(Position{X: 0, Y: 0}, 100)
	if far > 25 {
		t.Fatalf("far temp = %v, want near ambient", far)
	}
	if f.At(Position{X: 40, Y: 50}, 100) >= late {
		t.Fatal("temperature should decay away from center")
	}
}

func TestSamplerNoiseReproducible(t *testing.T) {
	f := UniformField(100)
	n := &Node{ID: 3, Pos: Position{X: 1, Y: 1}}
	s1 := NewSampler(f, 2.0, 7)
	s2 := NewSampler(f, 2.0, 7)
	for i := 0; i < 10; i++ {
		a, b := s1.Sample(n, float64(i)), s2.Sample(n, float64(i))
		if a.Value != b.Value {
			t.Fatal("same seed should give identical noise")
		}
		if a.Value == 100 {
			t.Fatal("noise should perturb the reading")
		}
	}
}

func TestPartialMergeEquivalence(t *testing.T) {
	// Property: splitting readings across partials and merging equals one
	// big partial, for all aggregates.
	f := func(xs []float64, split uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true // avoid float64 overflow in Sum
			}
		}
		k := int(split) % len(xs)
		var whole, left, right Partial
		for _, x := range xs {
			whole.Add(x)
		}
		for _, x := range xs[:k] {
			left.Add(x)
		}
		for _, x := range xs[k:] {
			right.Add(x)
		}
		left.Merge(right)
		for _, agg := range []AggKind{AggSum, AggCount, AggMin, AggMax, AggAvg} {
			a, b := whole.Final(agg), left.Final(agg)
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialEmpty(t *testing.T) {
	var p Partial
	if got := p.Final(AggCount); got != 0 {
		t.Fatalf("empty count = %v, want 0", got)
	}
	if !math.IsNaN(p.Final(AggAvg)) {
		t.Fatal("empty avg should be NaN")
	}
	var q Partial
	q.Add(5)
	p.Merge(q) // identity merge
	if p.Final(AggSum) != 5 {
		t.Fatal("merge into empty partial lost data")
	}
	q.Merge(Partial{}) // merging empty is a no-op
	if q.Final(AggCount) != 1 {
		t.Fatal("merging empty partial changed state")
	}
}

func TestParseAggKind(t *testing.T) {
	for _, name := range []string{"sum", "count", "min", "max", "avg"} {
		k, err := ParseAggKind(name)
		if err != nil {
			t.Fatalf("ParseAggKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Fatalf("round trip %q -> %q", name, k.String())
		}
	}
	if _, err := ParseAggKind("median"); err == nil {
		t.Fatal("unsupported aggregate should error")
	}
}

func TestTxSerialisation(t *testing.T) {
	// Two back-to-back sends from one node must not overlap on the air:
	// the second delivery lands one full transmission after the first.
	cfg := testConfig()
	cfg.RadioRange = 60
	nw := NewGridNetwork(cfg, 2, 2)
	var first, second simevent.Time
	if !nw.Send(0, 1, 100, func(_, _ NodeID, at simevent.Time) { first = at }, 0) {
		t.Fatal("send 1 failed")
	}
	if !nw.Send(0, 1, 100, func(_, _ NodeID, at simevent.Time) { second = at }, 0) {
		t.Fatal("send 2 failed")
	}
	nw.Kernel.RunAll()
	txDur := nw.txDuration(100)
	if second < first+txDur-1e-12 {
		t.Fatalf("second delivery %v overlaps first %v (txDur %v)", second, first, txDur)
	}
}

func TestConvergecastSerialisesAtRelay(t *testing.T) {
	// In a direct collection, a relay forwarding many readings serialises
	// them: total latency grows with the number of forwarded readings,
	// not just the hop count.
	cfg := testConfig()
	small := NewGridNetwork(cfg, 3, 5)
	small.SetField(UniformField(1), 0)
	big := NewGridNetwork(cfg, 8, 5)
	big.SetField(UniformField(1), 0)
	rs, err := (DirectStrategy{}).Collect(small, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := (DirectStrategy{}).Collect(big, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	if rb.Latency <= rs.Latency {
		t.Fatalf("more traffic should mean more serialisation: %v vs %v", rb.Latency, rs.Latency)
	}
}

// NewRandomNetwork places n sensors uniformly at random in the area.
func NewRandomNetwork(cfg Config, n int) *Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	positions := make([]Position, n)
	for i := range positions {
		positions[i] = Position{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
	}
	return NewNetwork(cfg, positions)
}

// Connected reports whether every alive sensor can reach the base station.
func (nw *Network) Connected() bool {
	t := nw.currentTree()
	for i, alive := range t.alive {
		if alive && t.depth[i] < 0 {
			return false
		}
	}
	return true
}

// RouteToBase returns the hop path from a sensor to the base station along
// the current hop tree, excluding the sensor itself and including the base.
func (nw *Network) RouteToBase(id NodeID) []NodeID {
	tree := nw.HopTree()
	var path []NodeID
	cur := id
	for cur != BaseStationID {
		p, ok := tree[cur]
		if !ok {
			return nil
		}
		path = append(path, p)
		cur = p
	}
	return path
}
