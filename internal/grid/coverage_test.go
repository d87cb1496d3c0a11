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
