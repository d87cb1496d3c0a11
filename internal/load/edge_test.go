package load

import (
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
)

func TestErrorRateAndDeliveryRateEmpty(t *testing.T) {
	var res Result
	if got := res.ErrorRate(); got != 0 {
		t.Fatalf("ErrorRate on empty result = %v", got)
	}
	if got := deliveryRate(&res); got != 0 {
		t.Fatalf("deliveryRate on empty result = %v", got)
	}
}

func TestStormAndFloodDefaults(t *testing.T) {
	s := StormOptions{}.withDefaults()
	if s.Duration != 10*time.Second || s.BulkRate != 3000 || s.PriorityRate != 20 ||
		s.ServiceTime != 500*time.Microsecond || s.Clock == nil {
		t.Fatalf("storm defaults = %+v", s)
	}
	f := FloodOptions{}.withDefaults()
	if f.Duration != 10*time.Second || f.Shelters != 10 || f.LeaseTTL != 2*time.Second ||
		f.RegisterRate != 20 || f.QueryRate != 60 || f.HeartbeatRate != 20 ||
		f.Blips != 2 || f.Clock == nil {
		t.Fatalf("flood defaults = %+v", f)
	}
	// Blips: -1 means "really none", distinct from the 0 → default 2.
	if got := (FloodOptions{Blips: -1}).withDefaults().Blips; got != 0 {
		t.Fatalf("Blips -1 = %d, want 0", got)
	}
}

func TestCheckStormReportFailures(t *testing.T) {
	cases := []struct {
		name    string
		metrics map[string]float64
		want    string
	}{
		{"low delivery", map[string]float64{"priorityDeliveryRate": 0.5}, "priority delivery"},
		{"dead letters", map[string]float64{"priorityDeliveryRate": 1, "priorityDeadLetters": 2}, "dead letters"},
	}
	for _, tc := range cases {
		err := CheckStormReport(&Report{Metrics: tc.metrics}, 0.99)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestCheckFloodReportFailures(t *testing.T) {
	base := func() map[string]float64 {
		return map[string]float64{
			"blips": 2, "linkDrops": 4, "reconnects": 2,
			"queryDeliveryRate": 1, "priorityDeliveryRate": 1,
			"priorityDeadLetters": 0, "liveShelters": 10,
		}
	}
	cases := []struct {
		name string
		mut  func(m map[string]float64)
		want string
	}{
		{"no severed links", func(m map[string]float64) { m["linkDrops"] = 0 }, "no connections severed"},
		{"never reconnected", func(m map[string]float64) { m["reconnects"] = 0 }, "never reconnected"},
		{"query delivery", func(m map[string]float64) { m["queryDeliveryRate"] = 0.5 }, "query delivery"},
		{"heartbeat delivery", func(m map[string]float64) { m["priorityDeliveryRate"] = 0.5 }, "heartbeat delivery"},
		{"dead letters", func(m map[string]float64) { m["priorityDeadLetters"] = 1 }, "dead letters"},
		{"empty registry", func(m map[string]float64) { m["liveShelters"] = 0 }, "registry empty"},
	}
	for _, tc := range cases {
		m := base()
		tc.mut(m)
		err := CheckFloodReport(&Report{Metrics: m}, 0.95, 0.95)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if err := CheckFloodReport(&Report{Metrics: base()}, 0.95, 0.95); err != nil {
		t.Fatalf("healthy report rejected: %v", err)
	}
}

// TestPriorityGateNamesEachLetter: a failed priority-lane gate names
// every letter it counted, with its platform, reason, route and
// correlation, and skips the letters of the ordinary lanes.
func TestPriorityGateNamesEachLetter(t *testing.T) {
	base, client := agent.NewPlatform("base"), agent.NewPlatform("client")
	defer base.Close()
	defer client.Close()
	for _, ont := range []string{"pgrid-control", "bulk"} {
		env, err := agent.NewEnvelope("hb", "ghost", "inform", ont, nil)
		if err != nil {
			t.Fatal(err)
		}
		env.InReplyTo = 7
		_ = base.Send(env)
	}
	rep := &Report{Metrics: map[string]float64{"priorityDeliveryRate": 1}}
	rep.notePriorityDeadLetters(base, client)
	err := CheckStormReport(rep, 0.99)
	want := "storm: 1 dead letters on the priority lane [base no_route hb -> ghost seq="
	if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.HasSuffix(err.Error(), " inReplyTo=7]") {
		t.Fatalf("err = %v, want %q ... inReplyTo=7]", err, want)
	}
}

func TestAttachRamp(t *testing.T) {
	rep := &Report{Schema: ReportSchema, Scenario: "x"}
	rep.AttachRamp(&RampResult{
		Steps:     []StepResult{{Rate: 10, Sustained: true}, {Rate: 20, Sustained: false}},
		Ceiling:   10,
		Saturated: true,
	})
	if rep.CeilingRPS != 10 || !rep.Saturated || len(rep.Steps) != 2 {
		t.Fatalf("attached = ceiling %v saturated %v steps %d", rep.CeilingRPS, rep.Saturated, len(rep.Steps))
	}
}

func TestReportFileErrors(t *testing.T) {
	rep := &Report{Schema: ReportSchema}
	if err := rep.WriteFile(filepath.Join(t.TempDir(), "no-such-dir", "r.json")); err == nil {
		t.Fatal("want error writing into a missing directory")
	}
}

func TestRampFailReasons(t *testing.T) {
	if _, err := Ramp(RampOptions{}, func(int) error { return nil }); err == nil {
		t.Fatal("want error for zero start rate")
	}

	// A 4% error rate: achieved throughput stays above the 90% sustain
	// fraction (errors don't count), so the error-rate criterion is the
	// one that must fire.
	boom := errors.New("boom")
	res, err := Ramp(RampOptions{
		Start: 100, StepDuration: 500 * time.Millisecond, StepWarmup: 1, Workers: 8,
	}, func(i int) error {
		if i%25 == 0 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || len(res.Steps) != 1 {
		t.Fatalf("saturated=%v steps=%d, want immediate error-rate failure", res.Saturated, len(res.Steps))
	}
	if got := res.Steps[0].FailReason; !strings.Contains(got, "error rate") {
		t.Fatalf("fail reason = %q, want error rate", got)
	}
}

func TestProxyTrackAfterCloseRejectsConn(t *testing.T) {
	upstream, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upstream.Close()
	p, err := NewFlakyProxy(upstream.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	a, b := net.Pipe()
	defer b.Close()
	p.track(a)
	// The closed proxy must have closed the conn rather than tracking it.
	a.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := a.Read(make([]byte, 1)); err == nil {
		t.Fatal("conn still open after track on closed proxy")
	}
	if p.Drops() != 0 {
		t.Fatalf("drops = %d, want 0 (close is not a drop)", p.Drops())
	}
}
