package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
)

func startTestFleet(t *testing.T, clk *obs.FakeClock, nodes int) *Fleet {
	t.Helper()
	f, err := StartFleet(FleetConfig{
		Nodes:    nodes,
		Interval: time.Second,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	// Every node's initial full report must land before virtual time
	// starts moving, or staleness math gets ambiguous.
	waitFor(t, "initial reports from every node", func() bool {
		for _, n := range f.Nodes {
			if f.Monitor.Reports(n.Name) < 1 {
				return false
			}
		}
		return true
	})
	waitParked(t, clk, f)
	return f
}

// waitParked waits until every running node's reporter is parked on the
// clock for its next tick. A report landing at the monitor does not mean
// its reporter has re-armed yet, and an Advance before that would skip the
// node's tick. Every Advance fires all earlier waiters (a stopped node's
// included), so afterwards the count is the reporters that have re-armed.
func waitParked(t *testing.T, clk *obs.FakeClock, f *Fleet) {
	t.Helper()
	running := 0
	for _, n := range f.Nodes {
		if n.Platform != nil {
			running++
		}
	}
	waitFor(t, "reporters parked on the clock", func() bool { return clk.Waiters() >= running })
}

// advanceAndSettle moves virtual time one report interval and waits for
// the still-alive nodes' reports to be ingested, so a later big jump
// cannot conflate "report in flight" with "node stale".
func advanceAndSettle(t *testing.T, clk *obs.FakeClock, f *Fleet, alive ...int) {
	t.Helper()
	before := make(map[string]uint64)
	for _, i := range alive {
		before[f.Nodes[i].Name] = f.Monitor.Reports(f.Nodes[i].Name)
	}
	clk.Advance(time.Second)
	waitFor(t, "interval reports", func() bool {
		for name, n := range before {
			if f.Monitor.Reports(name) <= n {
				return false
			}
		}
		return true
	})
	waitParked(t, clk, f)
}

func TestFleetOverTCP(t *testing.T) {
	clk := obs.NewFakeClock()
	f := startTestFleet(t, clk, 3)

	// Generate local traffic on each node, then let one report cycle
	// carry the deltas up.
	for _, n := range f.Nodes {
		n.Work(5)
	}
	advanceAndSettle(t, clk, f, 0, 1, 2)

	// The merged fleet registry must expose every node's series under a
	// node label.
	merged := f.Monitor.Snapshot()
	for _, name := range []string{"node-1", "node-2", "node-3"} {
		key := `agent_delivered_total{node="` + name + `"}`
		if merged.Counters[key] < 5 {
			t.Fatalf("merged snapshot missing %s: %v", key, merged.Counters[key])
		}
	}

	h := Handler(f.Monitor)

	// /fleet.json carries all three nodes, healthy.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/fleet.json", nil))
	if rec.Code != 200 {
		t.Fatalf("/fleet.json status %d", rec.Code)
	}
	var fv FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &fv); err != nil {
		t.Fatal(err)
	}
	if len(fv.Nodes) != 3 {
		t.Fatalf("fleet.json nodes = %d, want 3", len(fv.Nodes))
	}
	for _, nv := range fv.Nodes {
		if nv.Health != Healthy {
			t.Fatalf("node %s health %v, want healthy", nv.Node, nv.Health)
		}
		if nv.Series == 0 {
			t.Fatalf("node %s reported no series", nv.Node)
		}
	}

	// /healthz is green.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz status %d, want 200", rec.Code)
	}

	// /metrics exposes the node-labeled text format.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), `agent_delivered_total{node="node-2"}`) {
		t.Fatal("/metrics missing node-labeled series")
	}

	// Kill node-3: after the down threshold (8× interval) /healthz goes
	// 503 while surviving nodes stay healthy.
	f.StopNode(2)
	for i := 0; i < 9; i++ {
		advanceAndSettle(t, clk, f, 0, 1)
	}
	if got := f.Monitor.Health("node-3"); got != Down {
		t.Fatalf("node-3 health %v, want down", got)
	}
	if got := f.Monitor.Health("node-1"); got != Healthy {
		t.Fatalf("node-1 health %v, want healthy", got)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("/healthz status %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"node-3":"down"`) {
		t.Fatalf("/healthz body missing down node: %s", rec.Body.String())
	}
}

func TestFleetStitchesCrossNodeTraces(t *testing.T) {
	clk := obs.NewFakeClock()
	f := startTestFleet(t, clk, 1)

	// A traced conversation from node-1 to the monitor's echo agent: the
	// node records send/route spans locally, the monitor records
	// ingress/deliver directly into the stitched ring, and the node's
	// next report ships its half up.
	reply, err := agent.CallRetry(f.Nodes[0].Platform, EchoID, "request", OntologyProbe,
		"trace-me", 5*time.Second, agent.RetryPolicy{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reply.TraceID == 0 {
		t.Fatal("reply carries no trace id")
	}
	advanceAndSettle(t, clk, f, 0)

	waitFor(t, "stitched spans from both sides", func() bool {
		nodes := map[string]bool{}
		for _, sp := range f.Monitor.Tracer().Trace(reply.TraceID) {
			nodes[sp.Node] = true
		}
		return nodes["node-1"] && nodes["monitor"]
	})
	tl := f.Monitor.Timeline(reply.TraceID)
	for _, want := range []string{"[node-1", "[monitor", "ingress"} {
		if !strings.Contains(tl, want) {
			t.Fatalf("timeline missing %q:\n%s", want, tl)
		}
	}
}
