package grid

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mustResource(t *testing.T, name string, rate float64, cores int, eff float64) *Resource {
	t.Helper()
	r, err := NewResource(name, rate, cores, eff)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func testCluster(t *testing.T, policy Policy) *Cluster {
	t.Helper()
	c, err := NewCluster(
		Link{BandwidthBps: 1e6, LatencySec: 0.01},
		policy,
		mustResource(t, "workstation", 1e8, 4, 0.9),
		mustResource(t, "supercomputer", 1e10, 64, 0.8),
	)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestResourceValidation(t *testing.T) {
	cases := []struct {
		name  string
		rate  float64
		cores int
		eff   float64
	}{
		{"", 1, 1, 1},
		{"x", 0, 1, 1},
		{"x", 1, 0, 1},
		{"x", 1, 1, 0},
		{"x", 1, 1, 1.5},
	}
	for _, c := range cases {
		if _, err := NewResource(c.name, c.rate, c.cores, c.eff); err == nil {
			t.Fatalf("NewResource(%q,%v,%d,%v) should fail", c.name, c.rate, c.cores, c.eff)
		}
	}
}

func TestEffectiveRateScaling(t *testing.T) {
	r := mustResource(t, "r", 100, 8, 0.5)
	if got := r.EffectiveRate(1); got != 100 {
		t.Fatalf("rate(1) = %v, want 100", got)
	}
	if got := r.EffectiveRate(2); got != 150 {
		t.Fatalf("rate(2) = %v, want 150", got)
	}
	// Clamped to core count.
	if r.EffectiveRate(100) != r.EffectiveRate(8) {
		t.Fatal("workers should clamp to cores")
	}
	if r.EffectiveRate(0) != 100 {
		t.Fatal("workers < 1 should clamp to 1")
	}
}

func TestLinkTransferTime(t *testing.T) {
	l := Link{BandwidthBps: 8000, LatencySec: 0.5}
	if got := l.TransferTime(1000); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("transfer = %v, want 1.5", got)
	}
	if got := l.TransferTime(0); got != 0.5 {
		t.Fatalf("empty transfer = %v, want latency only", got)
	}
}

func TestMinCompletionPrefersFastIdleResource(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p, err := c.Estimate(Job{Name: "big", Ops: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if p.Resource.Name != "supercomputer" {
		t.Fatalf("placed on %s, want supercomputer", p.Resource.Name)
	}
}

func TestMinCompletionAvoidsLoadedResource(t *testing.T) {
	c := testCluster(t, MinCompletion)
	// Saturate the supercomputer with a massive committed job.
	if _, err := c.Submit(Job{Name: "hog", Ops: 1e14}); err != nil {
		t.Fatal(err)
	}
	p, err := c.Estimate(Job{Name: "tiny", Ops: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if p.Resource.Name != "workstation" {
		t.Fatalf("placed on %s, want workstation (supercomputer queued)", p.Resource.Name)
	}
}

func TestSubmitReservesTime(t *testing.T) {
	c := testCluster(t, FastestFirst)
	p1, err := c.Submit(Job{Name: "a", Ops: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Submit(Job{Name: "b", Ops: 1e10})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Start < p1.Start+p1.Compute-1e-9 {
		t.Fatalf("second job started at %v before first finished compute at %v", p2.Start, p1.Start+p1.Compute)
	}
}

func TestEstimateDoesNotReserve(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p1, err := c.Estimate(Job{Name: "a", Ops: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Estimate(Job{Name: "a", Ops: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Finish != p2.Finish {
		t.Fatal("estimates should be idempotent")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	c := testCluster(t, RoundRobin)
	seen := map[string]int{}
	for i := 0; i < 4; i++ {
		p, err := c.Submit(Job{Name: "j", Ops: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		seen[p.Resource.Name]++
	}
	if seen["workstation"] != 2 || seen["supercomputer"] != 2 {
		t.Fatalf("round robin distribution = %v", seen)
	}
}

func TestTransferDominatesSmallJobs(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p, err := c.Estimate(Job{Name: "datafat", Ops: 1e6, InputBytes: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if p.TransferIn < p.Compute {
		t.Fatalf("transfer %v should dominate compute %v for data-fat tiny jobs", p.TransferIn, p.Compute)
	}
}

func TestSubmitRunsRealComputation(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p, err := c.Submit(Job{
		Name: "real", Ops: 1e6, Workers: 2,
		Run: func(workers int) (any, error) {
			if workers != 2 {
				t.Fatalf("granted %d workers, want 2", workers)
			}
			return 42, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Output != 42 {
		t.Fatalf("output = %v, want 42", p.Output)
	}
}

func TestSubmitPropagatesRunError(t *testing.T) {
	c := testCluster(t, MinCompletion)
	boom := errors.New("boom")
	_, err := c.Submit(Job{Name: "bad", Ops: 1, Run: func(int) (any, error) { return nil, boom }})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestNegativeOpsRejected(t *testing.T) {
	c := testCluster(t, MinCompletion)
	if _, err := c.Estimate(Job{Name: "neg", Ops: -5}); err == nil {
		t.Fatal("negative ops should be rejected")
	}
}

func TestClusterNeedsResources(t *testing.T) {
	if _, err := NewCluster(Link{}, MinCompletion); err == nil {
		t.Fatal("empty cluster should be rejected")
	}
}

func TestAdvanceAndUtilisation(t *testing.T) {
	c := testCluster(t, FastestFirst)
	if _, err := c.Submit(Job{Name: "j", Ops: 1e10}); err != nil {
		t.Fatal(err)
	}
	c.Advance(1000)
	for _, r := range c.Resources() {
		if busy := r.BusyUntil() > 0; busy != (r.Name == "supercomputer") {
			t.Fatalf("%s busy until %v: only the supercomputer should have run the job", r.Name, r.BusyUntil())
		}
	}
	c.Advance(-5) // ignored
	if c.Now() != 1000 {
		t.Fatal("negative advance should be ignored")
	}
}

func TestPolicyString(t *testing.T) {
	if MinCompletion.String() == "" || FastestFirst.String() == "" || RoundRobin.String() == "" {
		t.Fatal("policies should have names")
	}
	if Policy(99).String() == "" {
		t.Fatal("unknown policy should still format")
	}
}

func TestPropertyTransferTimeMonotone(t *testing.T) {
	f := func(bw uint32, lat uint16, a, b uint16) bool {
		l := Link{BandwidthBps: 1 + float64(bw%1_000_000), LatencySec: float64(lat) / 1000}
		x, y := int(a), int(a)+int(b)
		return l.TransferTime(y) >= l.TransferTime(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPlacementRespectsCausality(t *testing.T) {
	// Every committed placement starts at or after the transfer-in and
	// finishes after it starts.
	c := testCluster(t, MinCompletion)
	f := func(ops uint32, in uint16) bool {
		p, err := c.Submit(Job{Name: "p", Ops: float64(ops), InputBytes: int(in)})
		if err != nil {
			return false
		}
		return p.Finish >= p.Start && p.Start >= p.TransferIn-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitToUnknownResource(t *testing.T) {
	c := testCluster(t, MinCompletion)
	if _, err := c.SubmitTo("mainframe", Job{Name: "j", Ops: 1}); err == nil {
		t.Fatal("unknown resource should fail")
	}
}

func TestSubmitToRunsJob(t *testing.T) {
	c := testCluster(t, MinCompletion)
	p, err := c.SubmitTo("workstation", Job{
		Name: "j", Ops: 1e6,
		Run: func(workers int) (any, error) { return workers, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Resource.Name != "workstation" {
		t.Fatalf("placed on %s", p.Resource.Name)
	}
	if p.Output != 4 { // workstation has 4 cores
		t.Fatalf("workers granted = %v", p.Output)
	}
	// SubmitTo bypasses policy: min-completion would have picked the
	// supercomputer for this job.
	if sp, err := c.Submit(Job{Name: "k", Ops: 1e6}); err != nil || sp.Resource.Name != "supercomputer" {
		t.Fatalf("policy submit landed on %v (%v)", sp.Resource, err)
	}
}
