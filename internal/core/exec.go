package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"pervasivegrid/internal/grid"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/pde"
	"pervasivegrid/internal/query"
	"pervasivegrid/internal/sensornet"
)

// RoundResult is one epoch of a continuous query.
type RoundResult struct {
	Time    float64
	Value   float64
	EnergyJ float64
	Latency float64
}

// Result is the outcome of executing one query.
type Result struct {
	Query *query.Query
	Kind  query.Type
	// Model is the solution model the decision maker chose.
	Model partition.Model
	// Learned marks a decision made by the learned selector.
	Learned bool
	// Value is the scalar answer (reading, aggregate, or peak field
	// value for complex queries).
	Value float64
	// Field is the solved temperature distribution for complex queries.
	Field *pde.Grid2D
	// Field3D is the solved volume for isosurface (3-D) queries.
	Field3D *pde.Grid3D
	// Solve reports the PDE solve for complex queries.
	Solve pde.Result
	// Rounds holds per-epoch results for continuous queries.
	Rounds []RoundResult
	// Groups holds per-group aggregates for GROUP BY queries
	// (group label -> value); Value then carries the first group's
	// answer in label order.
	Groups map[string]float64
	// Coverage is the number of sensors that contributed.
	Coverage int
	// EnergyJ and TimeSec are the measured execution costs.
	EnergyJ float64
	TimeSec float64
	// Messages and Bytes are the radio traffic.
	Messages int
	Bytes    int
	// Cached marks a result served from the base station's cache.
	Cached bool
}

// Submit parses and executes a query.
func (rt *Runtime) Submit(src string) (*Result, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return rt.Execute(q)
}

// selector builds the WHERE predicate over static node attributes and the
// node's true local field value (a sensor can evaluate "temp > 50" on its
// own reading before transmitting, as in TAG's predicate push-down).
func (rt *Runtime) selector(q *query.Query, at float64) (func(*sensornet.Node) bool, error) {
	type check func(*sensornet.Node) bool
	var checks []check
	for _, p := range q.Where {
		p := p
		switch strings.ToLower(p.Field) {
		case "sensor":
			id, err := strconv.Atoi(p.Value)
			if err != nil {
				return nil, fmt.Errorf("core: sensor predicate value %q is not an id", p.Value)
			}
			if p.Op != "=" {
				return nil, fmt.Errorf("core: sensor predicate supports '=' only, got %q", p.Op)
			}
			checks = append(checks, func(n *sensornet.Node) bool { return n.ID == sensornet.NodeID(id) })
		case "room":
			switch p.Op {
			case "=":
				checks = append(checks, func(n *sensornet.Node) bool { return n.Room == p.Value })
			case "!=":
				checks = append(checks, func(n *sensornet.Node) bool { return n.Room != p.Value })
			default:
				return nil, fmt.Errorf("core: room predicate supports = and != only, got %q", p.Op)
			}
		case "temp", "value":
			v, err := strconv.ParseFloat(p.Value, 64)
			if err != nil {
				return nil, fmt.Errorf("core: temp predicate value %q is not a number", p.Value)
			}
			field := rt.Net.Sampler.Field
			checks = append(checks, func(n *sensornet.Node) bool {
				local := field.At(n.Pos, at)
				switch p.Op {
				case "=":
					return local == v
				case "!=":
					return local != v
				case "<":
					return local < v
				case "<=":
					return local <= v
				case ">":
					return local > v
				case ">=":
					return local >= v
				}
				return false
			})
		default:
			return nil, fmt.Errorf("core: unknown predicate field %q", p.Field)
		}
	}
	return func(n *sensornet.Node) bool {
		for _, c := range checks {
			if !c(n) {
				return false
			}
		}
		return true
	}, nil
}

// features summarises the query against the current network for the
// decision maker.
func (rt *Runtime) features(q *query.Query, sel func(*sensornet.Node) bool) partition.Features {
	depths := rt.Net.Depths()
	selected, sumDepth, maxDepth := 0, 0, 0
	for _, s := range rt.Net.Sensors {
		if !s.Alive() || (sel != nil && !sel(s)) {
			continue
		}
		d := depths[s.ID]
		if d < 0 {
			continue
		}
		selected++
		sumDepth += d
		if d > maxDepth {
			maxDepth = d
		}
	}
	f := partition.Features{
		Base:     q.Base(),
		Selected: selected,
		Epoch:    q.Epoch,
	}
	if selected > 0 {
		f.AvgDepth = float64(sumDepth) / float64(selected)
		f.MaxDepth = float64(maxDepth)
	}
	if q.Base() == query.Complex {
		f.ComputeOps = pde.EstimateJacobiOps(rt.Cfg.PDE.Nx, rt.Cfg.PDE.Ny, rt.Cfg.PDE.Tol)
	}
	return f
}

// Execute runs a parsed query end-to-end: install, classify, decide,
// execute, observe.
func (rt *Runtime) Execute(q *query.Query) (*Result, error) {
	if hit, ok := rt.cachedFor(q); ok {
		rt.record(hit)
		return hit, nil
	}
	install := rt.installQuery(q)
	var res *Result
	var err error
	if q.Epoch > 0 {
		res, err = rt.executeContinuous(q)
	} else {
		res, err = rt.executeOnce(q, rt.clock)
	}
	if err != nil {
		return nil, err
	}
	// Fold the installation round into the result's accounting.
	res.Messages += install.Messages
	res.Bytes += install.Bytes
	res.EnergyJ += install.EnergyJ
	res.TimeSec += install.Latency
	rt.storeCache(q, res)
	rt.record(res)
	return res, nil
}

// installQuery pushes the query text into the network — Figure 1's
// "Install Query" arrow. Single-sensor queries route point-to-point;
// everything else floods (TAG-style declarative query push-down). The
// installation happens once per Execute, so continuous queries amortise it
// across epochs.
func (rt *Runtime) installQuery(q *query.Query) sensornet.DisseminationResult {
	payload := len(q.Raw)
	if payload == 0 {
		payload = len(q.String())
	}
	if target := q.TargetSensor(); target >= 0 && q.Base() == query.Simple {
		// Route to the one sensor: the cost mirrors a unicast along the
		// hop tree (link costs are symmetric in the radio model).
		res, err := sensornet.Unicast(rt.Net, sensornet.NodeID(target), payload)
		if err != nil {
			return sensornet.DisseminationResult{}
		}
		rt.clock += res.Latency
		return res
	}
	res := sensornet.Flood(rt.Net, sensornet.BaseStationID, payload)
	rt.clock += res.Latency
	return res
}

func (rt *Runtime) executeOnce(q *query.Query, at float64) (*Result, error) {
	sel, err := rt.selector(q, at)
	if err != nil {
		return nil, err
	}
	switch q.Base() {
	case query.Simple:
		return rt.executeSimple(q, sel, at)
	case query.Aggregate:
		return rt.executeAggregate(q, sel, at)
	case query.Complex:
		return rt.executeComplex(q, sel, at)
	}
	return nil, fmt.Errorf("core: unhandled query type %v", q.Kind())
}

// executeSimple answers a single-sensor probe with a hop-by-hop unicast.
func (rt *Runtime) executeSimple(q *query.Query, sel func(*sensornet.Node) bool, at float64) (*Result, error) {
	target := q.TargetSensor()
	var node *sensornet.Node
	if target >= 0 {
		node = rt.Net.Node(sensornet.NodeID(target))
		if node == nil {
			return nil, fmt.Errorf("core: sensor %d does not exist", target)
		}
	} else {
		// No pinned sensor: pick the first match.
		for _, s := range rt.Net.Sensors {
			if s.Alive() && sel(s) {
				node = s
				break
			}
		}
		if node == nil {
			return nil, fmt.Errorf("core: no sensor matches %s", q)
		}
	}
	if !node.Alive() {
		return nil, fmt.Errorf("core: sensor %d is dead", node.ID)
	}
	reading := rt.Net.Sampler.Sample(node, at)
	res, err := sensornet.Unicast(rt.Net, node.ID, sensornet.RawReadingBytes)
	if err != nil {
		return nil, err
	}
	if res.Reached != 1 {
		return nil, fmt.Errorf("core: reading from sensor %d lost in transit", node.ID)
	}
	rt.clock += res.Latency
	return &Result{
		Query: q, Kind: q.Kind(), Model: partition.ModelDirect,
		Value: reading.Value, Coverage: 1,
		EnergyJ: res.EnergyJ, TimeSec: res.Latency,
		Messages: res.Messages, Bytes: res.Bytes,
	}, nil
}

// strategyFor maps a chosen model to a collection strategy. ModelGrid
// collects raw data like direct (the grid needs the raw readings).
func strategyFor(m partition.Model) sensornet.Strategy {
	switch m {
	case partition.ModelTree:
		return sensornet.TreeStrategy{}
	case partition.ModelCluster:
		return &sensornet.ClusterStrategy{}
	default:
		return sensornet.DirectStrategy{}
	}
}

func (rt *Runtime) executeAggregate(q *query.Query, sel func(*sensornet.Node) bool, at float64) (*Result, error) {
	agg, err := sensornet.ParseAggKind(q.AggFunc())
	if err != nil {
		return nil, err
	}
	f := rt.features(q, sel)
	dec, err := rt.DM.Choose(q, f)
	if err != nil {
		return nil, err
	}
	if q.GroupBy != "" {
		return rt.executeGrouped(q, sel, agg, dec, f, at)
	}
	strat := strategyFor(dec.Model)
	col, err := strat.Collect(rt.Net, sensornet.CollectRequest{Agg: agg, Select: sel, Time: at})
	if err != nil {
		return nil, err
	}
	timeSec := col.Latency
	if dec.Model == partition.ModelGrid {
		// Ship the readings to the grid for the (trivial) aggregation:
		// pays transfer, demonstrating why the decision maker avoids
		// this for aggregates.
		placement, err := rt.Cluster.Submit(grid.Job{
			Name:        "aggregate",
			Ops:         float64(col.Coverage),
			InputBytes:  col.Coverage * sensornet.RawReadingBytes,
			OutputBytes: sensornet.PartialStateBytes,
		})
		if err != nil {
			return nil, err
		}
		timeSec += placement.ResponseTime()
	}
	rt.DM.Observe(f, dec.Model, partition.Measured{EnergyJ: col.EnergyJ, TimeSec: timeSec})
	rt.clock += timeSec
	return &Result{
		Query: q, Kind: q.Kind(), Model: dec.Model, Learned: dec.Learned,
		Value: col.Value, Coverage: col.Coverage,
		EnergyJ: col.EnergyJ, TimeSec: timeSec,
		Messages: col.Messages, Bytes: col.Bytes,
	}, nil
}

// executeComplex answers a temperature-distribution query: collect raw
// readings, build the PDE grid, and solve — at the base station or on the
// wired grid, per the decision maker.
func (rt *Runtime) executeComplex(q *query.Query, sel func(*sensornet.Node) bool, at float64) (*Result, error) {
	switch q.ComplexFunc() {
	case "forecast":
		return rt.executeForecast(q, sel, at)
	case "isosurface":
		return rt.executeSolve3D(q, sel, at)
	}
	f := rt.features(q, sel)
	dec, err := rt.DM.Choose(q, f)
	if err != nil {
		return nil, err
	}
	// Raw data always leaves the network for complex queries.
	col, err := sensornet.DirectStrategy{}.Collect(rt.Net, sensornet.CollectRequest{
		Agg: sensornet.AggMax, Select: sel, Time: at,
	})
	if err != nil {
		return nil, err
	}

	g, err := pde.NewGrid2D(rt.Cfg.PDE.Nx, rt.Cfg.PDE.Ny, rt.Cfg.Net.Width/float64(rt.Cfg.PDE.Nx-1))
	if err != nil {
		return nil, err
	}
	ambient := 20.0
	if tf, ok := rt.Net.Sampler.Field.(*sensornet.TemperatureField); ok {
		ambient = tf.Ambient
	}
	g.SetBoundary(ambient)
	samples := make([]pde.Sample, 0, len(col.Readings))
	for _, r := range col.Readings {
		n := rt.Net.Node(r.Sensor)
		if n == nil {
			continue
		}
		samples = append(samples, pde.Sample{X: n.Pos.X, Y: n.Pos.Y, Value: r.Value})
	}
	pde.PinSamples(g, rt.Cfg.Net.Width, rt.Cfg.Net.Height, samples)

	opt := pde.Options{Tol: rt.Cfg.PDE.Tol}
	var solve pde.Result
	timeSec := col.Latency
	switch dec.Model {
	case partition.ModelGrid:
		placement, err := rt.Cluster.Submit(grid.Job{
			Name:        "pde-solve",
			Ops:         f.ComputeOps,
			InputBytes:  col.Coverage * sensornet.RawReadingBytes,
			OutputBytes: rt.Cfg.PDE.Nx * rt.Cfg.PDE.Ny * 8,
			Run: func(workers int) (any, error) {
				opt.Workers = workers
				return pde.Solve(g, rt.Cfg.PDE.Method, opt)
			},
		})
		if err != nil {
			return nil, err
		}
		out, ok := placement.Output.(pde.Result)
		if !ok {
			return nil, fmt.Errorf("core: grid solve returned %T", placement.Output)
		}
		solve = out
		timeSec += placement.ResponseTime()
	default:
		// Base station solves single-threaded; its modelled rate
		// converts the solver's op count into virtual time.
		opt.Workers = 1
		solve, err = pde.Solve(g, rt.Cfg.PDE.Method, opt)
		if err != nil {
			return nil, err
		}
		timeSec += solve.Ops / rt.Cfg.Platform.BaseOpsPerSec
	}
	if !solve.Converged {
		return nil, fmt.Errorf("core: PDE solve did not converge (residual %g)", solve.Residual)
	}

	peak := math.Inf(-1)
	for _, v := range g.V {
		if v > peak {
			peak = v
		}
	}
	rt.DM.Observe(f, dec.Model, partition.Measured{EnergyJ: col.EnergyJ, TimeSec: timeSec})
	rt.clock += timeSec
	return &Result{
		Query: q, Kind: q.Kind(), Model: dec.Model, Learned: dec.Learned,
		Value: peak, Field: g, Solve: solve, Coverage: col.Coverage,
		EnergyJ: col.EnergyJ, TimeSec: timeSec,
		Messages: col.Messages, Bytes: col.Bytes,
	}, nil
}

// executeContinuous runs the inner query once per epoch for MaxRounds,
// charging idle energy between epochs.
func (rt *Runtime) executeContinuous(q *query.Query) (*Result, error) {
	inner := *q
	inner.Epoch = 0
	total := &Result{Query: q, Kind: query.Continuous}
	for round := 0; round < rt.Cfg.MaxRounds; round++ {
		at := rt.clock
		r, err := rt.executeOnce(&inner, at)
		if err != nil {
			if round > 0 {
				break // degrade: report completed rounds
			}
			return nil, err
		}
		total.Rounds = append(total.Rounds, RoundResult{
			Time: at, Value: r.Value, EnergyJ: r.EnergyJ, Latency: r.TimeSec,
		})
		total.Model = r.Model
		total.Value = r.Value
		total.Groups = r.Groups
		total.Coverage = r.Coverage
		total.EnergyJ += r.EnergyJ
		total.TimeSec += r.TimeSec
		total.Messages += r.Messages
		total.Bytes += r.Bytes
		// Advance to the next epoch boundary and charge idle listening.
		if wait := q.Epoch - r.TimeSec; wait > 0 {
			rt.Net.ChargeIdle(wait)
			rt.clock += wait
		}
	}
	if len(total.Rounds) == 0 {
		return nil, fmt.Errorf("core: continuous query produced no rounds")
	}
	return total, nil
}
