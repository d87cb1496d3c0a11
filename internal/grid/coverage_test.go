package grid

import "testing"

func TestResourceBusyUntilTracksReservations(t *testing.T) {
	c := testCluster(t, FastestFirst)
	p, err := c.Submit(Job{Name: "j", Ops: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	busy := p.Resource.BusyUntil()
	if busy <= 0 {
		t.Fatalf("BusyUntil = %v, want > 0 after a reservation", busy)
	}
	p2, err := c.Submit(Job{Name: "j2", Ops: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Resource.Name == p.Resource.Name && p2.Resource.BusyUntil() <= busy {
		t.Fatalf("second reservation should extend BusyUntil past %v", busy)
	}
}

func TestPlacementResponseTime(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p, err := c.Estimate(Job{Name: "j", Ops: 1e9, InputBytes: 1000, OutputBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ResponseTime(); got != p.Finish {
		t.Fatalf("ResponseTime = %v, want Finish %v", got, p.Finish)
	}
	if p.ResponseTime() < p.TransferIn+p.Compute {
		t.Fatalf("response %v cannot undercut transfer %v + compute %v",
			p.ResponseTime(), p.TransferIn, p.Compute)
	}
}

func TestStageRefreshGrowAndShrink(t *testing.T) {
	s := NewStageManager(0)
	if _, err := s.Stage("k", 1000); err != nil {
		t.Fatal(err)
	}
	// Growing pays only the delta across the link.
	moved, err := s.Stage("k", 1500)
	if err != nil || moved != 500 {
		t.Fatalf("grow moved %d err=%v, want 500", moved, err)
	}
	// Shrinking moves nothing.
	moved, err = s.Stage("k", 200)
	if err != nil || moved != 0 {
		t.Fatalf("shrink moved %d err=%v, want 0", moved, err)
	}
	if n, ok := s.Resident("k"); !ok || n != 200 {
		t.Fatalf("resident = %d %v, want 200", n, ok)
	}
	if s.Hits("nope") != 0 {
		t.Fatal("missing key should report zero hits")
	}
}

func TestSubmitStagedPropagatesStageError(t *testing.T) {
	c := testCluster(t, MinCompletion)
	s := NewStageManager(0)
	if _, err := c.SubmitStaged(s, "bad", Job{Name: "j", Ops: 1e6, InputBytes: -1}); err == nil {
		t.Fatal("negative input bytes should fail staging")
	}
}
