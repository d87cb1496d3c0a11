package core

import (
	"math"
	"testing"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/query"
	"pervasivegrid/internal/sensornet"
)

// fireRuntime builds the Figure 1 deployment: a 10x10 building sensor grid
// with a fire burning at the center.
func fireRuntime(t *testing.T) *Runtime {
	t.Helper()
	cfg := DefaultConfig()
	f := sensornet.NewTemperatureField(20)
	// Ignited before the simulation origin so intensity is already ~1 at
	// t=0 (intensity ramps as 1-exp(-GrowthRate*(t-Start))).
	f.Ignite(sensornet.Hotspot{
		Center: sensornet.Position{X: 50, Y: 50},
		Peak:   500, Radius: 15, Start: -1, GrowthRate: 10,
	})
	cfg.Field = f
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.AssignRooms(2, 2)
	return rt
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 0, 0
	if _, err := New(cfg); err == nil {
		t.Fatal("config without deployment should fail")
	}
}

func TestSimpleQuery(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT temp FROM sensors WHERE sensor = 44")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.Simple || res.Coverage != 1 {
		t.Fatalf("result = %+v", res)
	}
	// Sensor 44 is at (45,45), close to the fire: hot.
	if res.Value < 100 {
		t.Fatalf("near-fire reading = %v, want hot", res.Value)
	}
	if res.EnergyJ <= 0 || res.TimeSec <= 0 || res.Messages < 1 {
		t.Fatalf("metrics = %+v", res)
	}
}

func TestSimpleQueryUnknownSensor(t *testing.T) {
	rt := fireRuntime(t)
	if _, err := rt.Submit("SELECT temp FROM sensors WHERE sensor = 999"); err == nil {
		t.Fatal("unknown sensor should fail")
	}
}

func TestAggregateQuery(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.Aggregate {
		t.Fatalf("kind = %v", res.Kind)
	}
	if res.Coverage != 100 {
		t.Fatalf("coverage = %d, want 100", res.Coverage)
	}
	// Average must be above ambient (fire) but far below peak.
	if res.Value <= 20 || res.Value >= 500 {
		t.Fatalf("avg = %v", res.Value)
	}
	// Decision maker should pick in-network aggregation.
	if res.Model == partition.ModelGrid {
		t.Fatalf("aggregate went to the grid: %v", res.Model)
	}
}

func TestAggregateWithRoomPredicate(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT count(temp) FROM sensors WHERE room = 'r0'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 25 {
		t.Fatalf("room r0 coverage = %d, want 25 (quarter of 10x10)", res.Coverage)
	}
	if res.Value != 25 {
		t.Fatalf("count = %v", res.Value)
	}
}

func TestAggregateWithValuePredicate(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT count(temp) FROM sensors WHERE temp > 100")
	if err != nil {
		t.Fatal(err)
	}
	// Only sensors near the fire read > 100.
	if res.Value <= 0 || res.Value >= 100 {
		t.Fatalf("hot sensors = %v, want a strict subset", res.Value)
	}
}

func TestComplexQuerySolvesField(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT tempdist(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.Complex || res.Field == nil {
		t.Fatalf("result = %+v", res)
	}
	if !res.Solve.Converged {
		t.Fatal("solve did not converge")
	}
	// The reconstructed field must be hot near the fire center and near
	// ambient at the building corner.
	nx, ny := res.Field.Nx, res.Field.Ny
	center := res.Field.At(nx/2, ny/2)
	corner := res.Field.At(1, 1)
	if center < 100 {
		t.Fatalf("field center = %v, want hot", center)
	}
	if corner > center/2 {
		t.Fatalf("corner %v should be much cooler than center %v", corner, center)
	}
	if res.Value < center-1e-9 {
		t.Fatalf("peak %v below center %v", res.Value, center)
	}
	// Complex queries go to the grid or base station.
	if res.Model != partition.ModelGrid && res.Model != partition.ModelDirect {
		t.Fatalf("complex model = %v", res.Model)
	}
}

func TestContinuousQueryRounds(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT temp FROM sensors WHERE sensor = 44 EPOCH DURATION 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.Continuous {
		t.Fatalf("kind = %v", res.Kind)
	}
	if len(res.Rounds) != rt.Cfg.MaxRounds {
		t.Fatalf("rounds = %d, want %d", len(res.Rounds), rt.Cfg.MaxRounds)
	}
	// Epochs advance virtual time.
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Time <= res.Rounds[i-1].Time {
			t.Fatalf("round times not increasing: %+v", res.Rounds)
		}
	}
	if rt.clock < 20 {
		t.Fatalf("clock = %v, want >= 2 epochs", rt.clock)
	}
}

func TestContinuousAggregate(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT max(temp) FROM sensors EPOCH 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	if res.Value < 100 {
		t.Fatalf("max temp = %v, want hot", res.Value)
	}
}

func TestCostClauseRejected(t *testing.T) {
	rt := fireRuntime(t)
	// Impossible energy bound.
	if _, err := rt.Submit("SELECT avg(temp) FROM sensors COST energy 0.0000000001"); err == nil {
		t.Fatal("impossible cost limit should fail")
	}
}

func TestDecisionFeedbackAccumulates(t *testing.T) {
	rt := fireRuntime(t)
	before := rt.DM.Observations()
	for i := 0; i < 3; i++ {
		if _, err := rt.Submit("SELECT avg(temp) FROM sensors"); err != nil {
			t.Fatal(err)
		}
	}
	if rt.DM.Observations() <= before {
		t.Fatal("executions should feed the decision maker")
	}
}

func TestBadQueries(t *testing.T) {
	rt := fireRuntime(t)
	for _, src := range []string{
		"SELECT temp FROM sensors WHERE widget = 5",
		"SELECT temp FROM sensors WHERE sensor > 5",
		"SELECT temp FROM sensors WHERE sensor = xyz",
		"SELECT temp FROM sensors WHERE temp = abc",
		"SELECT temp FROM sensors WHERE room < 'r0'",
		"not a query",
	} {
		if _, err := rt.Submit(src); err == nil {
			t.Errorf("Submit(%q) should fail", src)
		}
	}
}

func TestAssignRooms(t *testing.T) {
	rt := fireRuntime(t)
	rooms := map[string]int{}
	for _, s := range rt.Net.Sensors {
		rooms[s.Room]++
	}
	if len(rooms) != 4 {
		t.Fatalf("rooms = %v, want 4 quadrants", rooms)
	}
	for r, n := range rooms {
		if n != 25 {
			t.Fatalf("room %s has %d sensors, want 25", r, n)
		}
	}
	rt.AssignRooms(0, 5) // invalid: no-op
}

func TestAdvertiseAndDiscover(t *testing.T) {
	rt := fireRuntime(t)
	if err := rt.AdvertiseDefaults(); err != nil {
		t.Fatal(err)
	}
	// 100 sensors + 2 solvers + 1 gateway.
	if n := rt.Broker.Reg.Len(); n != 103 {
		t.Fatalf("advertised = %d, want 103", n)
	}
	// Semantic discovery: nearest temperature sensors to a location.
	got := rt.Discover(ontology.Request{
		Concept: "TemperatureSensor",
		X:       50, Y: 50, HasLoc: true,
		Constraints: []ontology.Constraint{{Op: ontology.OpNear, Value: ontology.Num(10)}},
	})
	if len(got) == 0 {
		t.Fatal("no sensors near the center")
	}
	for _, m := range got {
		x, _ := m.Profile.Prop("x")
		y, _ := m.Profile.Prop("y")
		dx, dy := x.N-50, y.N-50
		if math.Sqrt(dx*dx+dy*dy) > 10 {
			t.Fatalf("match %s outside radius", m.Profile.Name)
		}
	}
	// A solver request finds the grid resources.
	solvers := rt.Discover(ontology.Request{Concept: "PDESolver"})
	if len(solvers) < 2 {
		t.Fatalf("solvers = %d, want >= 2", len(solvers))
	}
}

func TestCompositionEngineFromRuntime(t *testing.T) {
	rt := fireRuntime(t)
	if err := rt.AdvertiseDefaults(); err != nil {
		t.Fatal(err)
	}
	e := rt.NewCompositionEngine(nil)
	if e == nil || e.Invoke == nil {
		t.Fatal("engine incomplete")
	}
	// The platform-backed variant must come armed with a real invoker and
	// per-service breakers.
	p := agent.NewPlatform("compose")
	defer p.Close()
	pe := rt.NewCompositionEngine(p)
	if pe.Breakers == nil {
		t.Fatal("platform engine has no breakers")
	}
}

func TestQueryAgentEndToEnd(t *testing.T) {
	rt := fireRuntime(t)
	p := agent.NewPlatform("test")
	defer p.Close()
	if err := rt.RegisterQueryAgent(p); err != nil {
		t.Fatal(err)
	}

	replies := make(chan QueryReply, 1)
	err := p.Register("handheld", agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var r QueryReply
		if err := env.Decode(&r); err == nil {
			replies <- r
		}
	}), agent.Attributes{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	env, err := agent.NewEnvelope("handheld", QueryAgentID, "request", QueryOntology,
		QueryRequest{Query: "SELECT avg(temp) FROM sensors"})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Send(env); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-replies:
		if !r.OK || r.Kind != "aggregate" || r.Coverage != 100 {
			t.Fatalf("reply = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no reply from query agent")
	}

	// Malformed query surfaces as a failure reply, not silence.
	bad, _ := agent.NewEnvelope("handheld", QueryAgentID, "request", QueryOntology,
		QueryRequest{Query: "garbage"})
	if err := p.Send(bad); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-replies:
		if r.OK || r.Error == "" {
			t.Fatalf("bad query reply = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no failure reply")
	}
}

func TestChooseOnly(t *testing.T) {
	rt := fireRuntime(t)
	dec, f, err := rt.ChooseOnly("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if f.Selected != 100 || len(dec.Estimates) != 4 {
		t.Fatalf("dec=%+v f=%+v", dec, f)
	}
	if _, _, err := rt.ChooseOnly("bogus"); err == nil {
		t.Fatal("bad query should fail")
	}
}

func TestEnergyDepletionOverContinuousRounds(t *testing.T) {
	rt := fireRuntime(t)
	before := rt.Net.TotalEnergyUsed()
	if _, err := rt.Submit("SELECT avg(temp) FROM sensors EPOCH 30"); err != nil {
		t.Fatal(err)
	}
	after := rt.Net.TotalEnergyUsed()
	if after <= before {
		t.Fatal("continuous rounds should drain energy (radio + idle)")
	}
}

func TestForecastQuery(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT forecast(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != query.Complex || res.Field == nil {
		t.Fatalf("result = %+v", res)
	}
	// The predicted field stays bounded by the pinned fire sources and
	// ambient, and remains hot near the fire.
	nx, ny := res.Field.Nx, res.Field.Ny
	center := res.Field.At(nx/2, ny/2)
	if center < 100 {
		t.Fatalf("forecast center = %v, want hot", center)
	}
	corner := res.Field.At(1, 1)
	if corner >= center {
		t.Fatal("corner should stay cooler than the fire")
	}
	if res.Solve.Iterations < 1 {
		t.Fatal("no integration steps recorded")
	}
}

func TestIsosurface3DQuery(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT isosurface(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Field3D == nil {
		t.Fatal("3D field missing")
	}
	if !res.Solve.Converged {
		t.Fatal("3D solve did not converge")
	}
	g3 := res.Field3D
	zmid := g3.Nz / 2
	center := g3.At(g3.Nx/2, g3.Ny/2, zmid)
	if center < 100 {
		t.Fatalf("3D center at sensor height = %v, want hot", center)
	}
	// Heat decays away from the instrumented layer toward the fixed
	// ceiling/floor.
	above := g3.At(g3.Nx/2, g3.Ny/2, g3.Nz-2)
	if above >= center {
		t.Fatalf("layer near ceiling (%v) should be cooler than sensor layer (%v)", above, center)
	}
	if res.Value < center-1e-9 {
		t.Fatal("peak below center")
	}
}

func TestQueryInstallationAccounted(t *testing.T) {
	// An aggregate query's traffic must include the installation flood:
	// more messages than the bare collection round.
	rtBare := fireRuntime(t)
	sel := func(n *sensornet.Node) bool { return true }
	_ = sel
	colOnly, err := sensornet.TreeStrategy{}.Collect(rtBare.Net, sensornet.CollectRequest{Agg: sensornet.AggAvg})
	if err != nil {
		t.Fatal(err)
	}
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages <= colOnly.Messages {
		t.Fatalf("query messages %d should exceed bare collection %d (installation flood)",
			res.Messages, colOnly.Messages)
	}
}

func TestContinuousAmortisesInstallation(t *testing.T) {
	// Three one-shot queries flood three times; one continuous query with
	// three epochs floods once — so it must cost fewer messages.
	rtOne := fireRuntime(t)
	oneShot := 0
	for i := 0; i < 3; i++ {
		res, err := rtOne.Submit("SELECT avg(temp) FROM sensors")
		if err != nil {
			t.Fatal(err)
		}
		oneShot += res.Messages
	}
	rtCont := fireRuntime(t)
	res, err := rtCont.Submit("SELECT avg(temp) FROM sensors EPOCH 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages >= oneShot {
		t.Fatalf("continuous (%d msgs) should amortise installation vs 3 one-shots (%d)",
			res.Messages, oneShot)
	}
}

func TestResultCacheServesRepeats(t *testing.T) {
	rt := fireRuntime(t)
	rt.EnableCache(60)
	first, err := rt.Submit("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first execution cannot be a cache hit")
	}
	energyAfterFirst := rt.Net.TotalEnergyUsed()
	second, err := rt.Submit("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat within TTL should hit the cache")
	}
	if second.Value != first.Value {
		t.Fatal("cached value differs")
	}
	if second.EnergyJ != 0 || second.Messages != 0 {
		t.Fatal("cache hit should cost nothing")
	}
	if rt.Net.TotalEnergyUsed() != energyAfterFirst {
		t.Fatal("cache hit drained sensor energy")
	}
	if len(rt.cache) != 1 {
		t.Fatalf("cache entries = %d", len(rt.cache))
	}
}

func TestResultCacheExpires(t *testing.T) {
	rt := fireRuntime(t)
	rt.EnableCache(5)
	if _, err := rt.Submit("SELECT max(temp) FROM sensors"); err != nil {
		t.Fatal(err)
	}
	// Burn virtual time past the TTL with an expensive query.
	if _, err := rt.Submit("SELECT temp FROM sensors WHERE sensor = 0 EPOCH 10"); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Submit("SELECT max(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("stale entry should not serve")
	}
}

func TestCacheDisabledAndContinuousBypass(t *testing.T) {
	rt := fireRuntime(t)
	// Disabled by default.
	if _, err := rt.Submit("SELECT avg(temp) FROM sensors"); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Submit("SELECT avg(temp) FROM sensors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("cache should be off by default")
	}
	// Continuous queries never cache.
	rt.EnableCache(1000)
	if _, err := rt.Submit("SELECT avg(temp) FROM sensors EPOCH 10"); err != nil {
		t.Fatal(err)
	}
	r2, err := rt.Submit("SELECT avg(temp) FROM sensors EPOCH 10")
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cached {
		t.Fatal("continuous query was cached")
	}
	// EnableCache(0) clears.
	rt.EnableCache(0)
	if len(rt.cache) != 0 {
		t.Fatal("disable should clear the cache")
	}
}

func TestSolverNegotiation(t *testing.T) {
	rt := fireRuntime(t)
	p := agent.NewPlatform("test")
	defer p.Close()
	if err := rt.RegisterSolverAgents(p); err != nil {
		t.Fatal(err)
	}
	// Both resources bid; the supercomputer's completion time wins.
	placement, winner, err := rt.NegotiateSolve(p, 1e10, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if winner != "supercomputer" {
		t.Fatalf("winner = %s, want supercomputer", winner)
	}
	if placement.Resource.Name != "supercomputer" {
		t.Fatalf("placed on %s", placement.Resource.Name)
	}
	// Saturate the supercomputer: the workstation's bid now wins for a
	// small job.
	for i := 0; i < 3; i++ {
		if _, _, err := rt.NegotiateSolve(p, 1e13, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	_, winner, err = rt.NegotiateSolve(p, 1e8, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if winner != "workstation" {
		t.Fatalf("queued-supercomputer negotiation picked %s, want workstation", winner)
	}
}

func TestNegotiateSolveRefusalOnBadOps(t *testing.T) {
	rt := fireRuntime(t)
	p := agent.NewPlatform("test")
	defer p.Close()
	if err := rt.RegisterSolverAgents(p); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rt.NegotiateSolve(p, -5, time.Second); err == nil {
		t.Fatal("all-refusal negotiation should fail")
	}
}

func TestGroupByRoom(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT count(temp) FROM sensors GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %v, want 4 rooms", res.Groups)
	}
	for room, v := range res.Groups {
		if v != 25 {
			t.Fatalf("room %s count = %v, want 25", room, v)
		}
	}
	if res.Coverage != 100 {
		t.Fatalf("total coverage = %d", res.Coverage)
	}
	// The fire is at the center: every quadrant's max should be above
	// ambient but differ per room is not guaranteed; check avg instead.
	res2, err := rt.Submit("SELECT avg(temp) FROM sensors GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	for room, v := range res2.Groups {
		if v <= 20 || v >= 500 {
			t.Fatalf("room %s avg = %v", room, v)
		}
	}
}

func TestGroupByWithPredicate(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT count(temp) FROM sensors WHERE temp > 100 GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range res.Groups {
		total += v
	}
	flat, err := rt.Submit("SELECT count(temp) FROM sensors WHERE temp > 100")
	if err != nil {
		t.Fatal(err)
	}
	if total != flat.Value {
		t.Fatalf("grouped total %v != flat count %v", total, flat.Value)
	}
}

func TestGroupByUnsupportedField(t *testing.T) {
	rt := fireRuntime(t)
	if _, err := rt.Submit("SELECT avg(temp) FROM sensors GROUP BY color"); err == nil {
		t.Fatal("GROUP BY color should fail")
	}
}

func TestGroupByContinuous(t *testing.T) {
	rt := fireRuntime(t)
	res, err := rt.Submit("SELECT max(temp) FROM sensors GROUP BY room EPOCH 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
}

func TestRuntimeStats(t *testing.T) {
	rt := fireRuntime(t)
	rt.EnableCache(600)
	for _, src := range []string{
		"SELECT temp FROM sensors WHERE sensor = 44",
		"SELECT avg(temp) FROM sensors",
		"SELECT avg(temp) FROM sensors", // cache hit
		"SELECT tempdist(temp) FROM sensors",
	} {
		if _, err := rt.Submit(src); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Queries["simple"] != 1 || st.Queries["aggregate"] != 2 || st.Queries["complex"] != 1 {
		t.Fatalf("queries = %v", st.Queries)
	}
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d", st.CacheHits)
	}
	if st.EnergyJ <= 0 || st.Messages == 0 {
		t.Fatalf("totals = %+v", st)
	}
	// The copy must not alias internal state.
	st.Queries["simple"] = 99
	if rt.Stats().Queries["simple"] != 1 {
		t.Fatal("Stats leaked internal map")
	}
}

func TestGroupedCacheInterplay(t *testing.T) {
	rt := fireRuntime(t)
	rt.EnableCache(600)
	first, err := rt.Submit("SELECT count(temp) FROM sensors GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	second, err := rt.Submit("SELECT count(temp) FROM sensors GROUP BY room")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("grouped repeat should hit the cache")
	}
	if len(second.Groups) != len(first.Groups) {
		t.Fatal("cached groups lost")
	}
}
