package telemetry

import (
	"net/http/httptest"
	"testing"
	"time"

	"pervasivegrid/internal/obs"
)

// Chaos drill from the issue: three nodes over real TCP, one uplink
// partitioned by the fault injector (silent drops — TCP stays up, the
// reporter keeps "succeeding"), virtual time driven by FakeClock. The
// partitioned node must walk healthy → degraded → suspect → down purely
// on report staleness, /healthz must go 503 only once it is down, and a
// heal must snap it back to healthy.
func TestChaosPartitionHealthLifecycle(t *testing.T) {
	clk := obs.NewFakeClock()
	f := startTestFleet(t, clk, 3)
	h := Handler(f.Monitor)
	const victim = 1 // node-2

	healthz := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}

	f.Nodes[victim].Injector.SetPartitioned(true)
	baseline := f.Monitor.Reports("node-2")

	// Walk the staleness ladder one report interval at a time. The
	// healthy nodes keep reporting on every tick; the victim's reports
	// are silently dropped on its uplink, so its staleness accrues.
	wantAt := map[int]Health{ // health after k advanced seconds
		1: Healthy, 2: Healthy, // ≤ 2s
		3: Degraded, 4: Degraded, // ≤ 4s
		5: Suspect, 8: Suspect, // ≤ 8s
		9: Down,
	}
	for k := 1; k <= 9; k++ {
		advanceAndSettle(t, clk, f, 0, 2)
		if want, ok := wantAt[k]; ok {
			if got := f.Monitor.Health("node-2"); got != want {
				t.Fatalf("after %ds of partition: node-2 health %v, want %v", k, got, want)
			}
		}
		// Suspect is bad but not down: the endpoint must stay green
		// until the down threshold.
		wantCode := 200
		if k >= 9 {
			wantCode = 503
		}
		if got := healthz(); got != wantCode {
			t.Fatalf("after %ds of partition: /healthz %d, want %d", k, got, wantCode)
		}
	}
	if got := f.Monitor.Reports("node-2"); got != baseline {
		t.Fatalf("partitioned node still delivered reports: %d -> %d", baseline, got)
	}
	for _, name := range []string{"node-1", "node-3"} {
		if got := f.Monitor.Health(name); got != Healthy {
			t.Fatalf("%s health %v, want healthy during partition", name, got)
		}
	}

	// Heal: the next delivered report resets staleness. It is a delta
	// whose base the monitor never saw (the reporter saw only
	// "successes"), so the monitor refuses its snapshot and the reply
	// makes the report after it full.
	f.Nodes[victim].Injector.SetPartitioned(false)
	clk.Advance(time.Second)
	waitFor(t, "post-heal report", func() bool {
		return f.Monitor.Reports("node-2") > baseline
	})
	if got := f.Monitor.Health("node-2"); got != Healthy {
		t.Fatalf("post-heal health %v, want healthy", got)
	}
	if got := healthz(); got != 200 {
		t.Fatalf("post-heal /healthz %d, want 200", got)
	}
	fv := f.Monitor.Fleet()
	for _, nv := range fv.Nodes {
		if nv.Node == "node-2" && nv.Missed == 0 {
			t.Fatal("monitor failed to count the reports lost to the partition")
		}
	}
}
