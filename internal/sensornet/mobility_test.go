package sensornet

import (
	"testing"

	"pervasivegrid/internal/simevent"
)

func TestMoveNodeRewiresTopology(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	if !nw.Connected() {
		t.Fatal("start connected")
	}
	// Move the far corner sensor out of everyone's range.
	if !nw.MoveNode(24, Position{X: 500, Y: 500}) {
		t.Fatal("move failed")
	}
	if nw.Connected() {
		t.Fatal("exiled node should disconnect the network")
	}
	tree := nw.HopTree()
	if _, ok := tree[24]; ok {
		t.Fatal("exiled node still routed")
	}
	// Bring it back next to the base station.
	nw.MoveNode(24, Position{X: 50, Y: 5})
	if !nw.Connected() {
		t.Fatal("returned node should reconnect")
	}
	if d := nw.Depths()[24]; d != 1 {
		t.Fatalf("returned node depth = %d, want 1", d)
	}
	if nw.MoveNode(999, Position{}) {
		t.Fatal("moving unknown node should fail")
	}
}

func TestMoveBase(t *testing.T) {
	cfg := testConfig()
	nw := NewGridNetwork(cfg, 5, 5)
	before := nw.Depths()[24]
	// Drive the command vehicle to the far corner: node 24 becomes close.
	nw.MoveBase(Position{X: 90, Y: 100})
	after := nw.Depths()[24]
	if after >= before {
		t.Fatalf("depth of far corner should shrink: %d -> %d", before, after)
	}
}

func TestLossProbClamped(t *testing.T) {
	nw := NewGridNetwork(testConfig(), 2, 2)
	nw.SetLossProb(-1)
	if nw.lossProb != 0 {
		t.Fatal("negative loss should clamp to 0")
	}
	nw.SetLossProb(2)
	if nw.lossProb != 1 {
		t.Fatal("loss > 1 should clamp to 1")
	}
}

func TestTotalLossDropsEverything(t *testing.T) {
	cfg := testConfig()
	cfg.RadioRange = 60
	nw := NewGridNetwork(cfg, 2, 2)
	nw.SetLossProb(1)
	delivered := false
	if nw.Send(0, 1, 10, func(NodeID, NodeID, simevent.Time) { delivered = true }, 0) {
		t.Fatal("send should report loss")
	}
	nw.Kernel.RunAll()
	if delivered {
		t.Fatal("lost message was delivered")
	}
	st := nw.Stats()
	if st.Lost != 1 {
		t.Fatalf("lost = %d, want 1", st.Lost)
	}
	// Sender still paid energy.
	if nw.Node(0).Energy >= nw.Node(0).InitialEnergy {
		t.Fatal("sender did not pay for the lost transmission")
	}
	// Receiver heard nothing and paid nothing.
	if nw.Node(1).Energy != nw.Node(1).InitialEnergy {
		t.Fatal("receiver paid for a message it never heard")
	}
}

func TestCollectionSurvivesModerateLoss(t *testing.T) {
	cfg := testConfig()
	cfg.Seed = 3
	nw := NewGridNetwork(cfg, 5, 5)
	nw.SetField(UniformField(30), 0)
	nw.SetLossProb(0.1)
	res, err := TreeStrategy{}.Collect(nw, CollectRequest{Agg: AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	// Lossy links shrink coverage but the round completes and the value
	// stays exact over the survivors.
	if res.Coverage == 0 {
		t.Fatal("no coverage under 10% loss")
	}
	if res.Coverage > 25 {
		t.Fatalf("coverage %d exceeds population", res.Coverage)
	}
	if res.Coverage > 0 && res.Value != 30 {
		t.Fatalf("avg over survivors = %v, want 30", res.Value)
	}
}
