package telemetry

import (
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/leak"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/partition"
)

func TestProbeOnceRecordsRTTAndLoss(t *testing.T) {
	p := agent.NewPlatform("probe-node")
	defer p.Close()
	if err := RegisterEcho(p); err != nil {
		t.Fatal(err)
	}

	pr := NewProber(p, ProbeOptions{Timeout: 2 * time.Second})
	if rtt, ok := pr.ProbeOnce(); !ok || rtt < 0 {
		t.Fatalf("probe against a live echo failed (rtt=%v ok=%v)", rtt, ok)
	}
	snap := p.Metrics().Snapshot()
	if snap.Counters[partition.SeriesTransportProbeSent] != 1 {
		t.Fatalf("sent = %v, want 1", snap.Counters[partition.SeriesTransportProbeSent])
	}
	if snap.Counters[partition.SeriesTransportProbeLost] != 0 {
		t.Fatalf("lost = %v, want 0", snap.Counters[partition.SeriesTransportProbeLost])
	}
	if snap.Histograms[partition.SeriesTransportRTT].Count != 1 {
		t.Fatal("RTT histogram not recorded")
	}

	// Deregister the echo: the next probe has no route to its target and
	// must count as lost without recording an RTT sample.
	p.Deregister(EchoID)
	if _, ok := pr.ProbeOnce(); ok {
		t.Fatal("probe against a missing echo reported success")
	}
	snap = p.Metrics().Snapshot()
	if snap.Counters[partition.SeriesTransportProbeLost] != 1 {
		t.Fatalf("lost = %v, want 1", snap.Counters[partition.SeriesTransportProbeLost])
	}
	if snap.Histograms[partition.SeriesTransportRTT].Count != 1 {
		t.Fatal("lost probe must not add an RTT sample")
	}
	pr.Close() // never started: Close must not hang
}

func TestProberLoopProbesOnClockTicks(t *testing.T) {
	leak.Check(t) // the prober loop goroutine must die with pr.Close
	clk := obs.NewFakeClock()
	p := agent.NewPlatform("probe-node")
	p.Clock = clk
	defer p.Close()
	if err := RegisterEcho(p); err != nil {
		t.Fatal(err)
	}

	pr := NewProber(p, ProbeOptions{Interval: time.Second, Timeout: time.Minute})
	pr.Start()
	pr.Start() // idempotent
	// Advance in steps: the loop goroutine may not have parked on the
	// clock yet, and a tick that lands before the park is simply missed.
	waitFor(t, "first periodic probe", func() bool {
		clk.Advance(time.Second)
		return p.Metrics().Snapshot().Counters[partition.SeriesTransportProbeSent] >= 1
	})
	pr.Close()
	pr.Close() // idempotent
}
