package telemetry

import (
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// TestMonitorHealthDrivesBreakers closes the feedback loop: a node that
// goes quiet decays to suspect and its circuit is forced open; when it
// resumes reporting, the cool-down plus a healthy report close it again.
func TestMonitorHealthDrivesBreakers(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("hub")
	p.Clock = clk
	defer p.Close()
	bs := supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold: 3, OpenFor: time.Minute, HalfOpenSuccesses: 1, Clock: clk,
	})
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second, Breakers: bs})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	mon.Ingest(Report{Node: "edge", Seq: 1})
	if got := bs.State("edge"); got != supervise.BreakerClosed {
		t.Fatalf("healthy node breaker = %v, want closed", got)
	}

	// The node goes quiet past 4×Interval (suspect): its circuit is
	// forced open so senders shed traffic toward it.
	clk.Advance(5 * time.Second)
	mon.SyncBreakers()
	if got := bs.State("edge"); got != supervise.BreakerOpen {
		t.Fatalf("suspect node breaker = %v, want open", got)
	}

	// The open circuit is visible in the fleet view.
	fv := mon.Fleet()
	found := false
	for _, bv := range fv.Breakers {
		if bv.Target == "edge" && bv.State == "open" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fleet view breakers %+v missing open edge circuit", fv.Breakers)
	}

	// A fresh report makes the node healthy again, but the circuit keeps
	// shedding until its cool-down elapses — health is a hint, recovery
	// is proven by a probe.
	mon.Ingest(Report{Node: "edge", Seq: 2})
	if got := bs.State("edge"); got != supervise.BreakerOpen {
		t.Fatalf("breaker healed before cool-down: %v", got)
	}
	clk.Advance(2 * time.Minute)
	if !bs.Allow("edge") {
		t.Fatal("cooled-down breaker refused the half-open probe")
	}
	mon.Ingest(Report{Node: "edge", Seq: 3})
	if got := bs.State("edge"); got != supervise.BreakerClosed {
		t.Fatalf("breaker after healthy report = %v, want closed", got)
	}
}

// TestMonitorOnHealthChange exercises the health-verdict subscription
// seam: subscribers see each verdict transition exactly once (repeated
// evaluations at the same verdict are silent), and cancel stops delivery.
func TestMonitorOnHealthChange(t *testing.T) {
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("hub")
	p.Clock = clk
	defer p.Close()
	mon, err := RegisterMonitor(p, MonitorOptions{Interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	type hop struct {
		node     string
		from, to Health
	}
	var got []hop
	cancel := mon.OnHealthChange(func(node string, from, to Health) {
		got = append(got, hop{node, from, to})
	})

	// First report: node arrives healthy — no change fires.
	mon.Ingest(Report{Node: "edge", Seq: 1})
	if len(got) != 0 {
		t.Fatalf("healthy arrival fired %v", got)
	}

	// Decay to degraded, then suspect; re-evaluating at the same
	// staleness band must not re-fire.
	clk.Advance(3 * time.Second)
	mon.SyncBreakers()
	mon.SyncBreakers()
	clk.Advance(2 * time.Second)
	mon.SyncBreakers()
	// Recovery snaps straight back to healthy.
	mon.Ingest(Report{Node: "edge", Seq: 2})

	want := []hop{
		{"edge", Healthy, Degraded},
		{"edge", Degraded, Suspect},
		{"edge", Suspect, Healthy},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("change[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	cancel()
	clk.Advance(time.Minute)
	mon.SyncBreakers() // edge -> down, but unsubscribed
	if len(got) != len(want) {
		t.Fatalf("cancelled subscriber still notified: %v", got[len(want):])
	}
}
