package core

import (
	"fmt"
	"math"

	"pervasivegrid/internal/grid"
	"pervasivegrid/internal/partition"
	"pervasivegrid/internal/pde"
	"pervasivegrid/internal/query"
	"pervasivegrid/internal/sensornet"
)

// A forecast(...) query reconstructs the current field from sensor
// readings and integrates the heat equation forward to predict the field a
// horizon into the future (the fire fighters' "where will it be hot in
// five minutes").
const (
	// forecastAlpha is the effective thermal diffusivity in m²/s, an
	// air-with-convection scale for building fires.
	forecastAlpha = 0.5
	// ForecastHorizon is the prediction span in seconds.
	ForecastHorizon = 300.0
	// forecastSourceThreshold marks readings this far above ambient as
	// persistent heat sources, pinned during integration.
	forecastSourceThreshold = 100
)

// ambient returns the field's baseline temperature.
func (rt *Runtime) ambient() float64 {
	if tf, ok := rt.Net.Sampler.Field.(*sensornet.TemperatureField); ok {
		return tf.Ambient
	}
	return 20
}

// forecastOps estimates the integration work for the decision maker.
func (rt *Runtime) forecastOps() float64 {
	g := rt.Cfg.PDE
	h := rt.Cfg.Net.Width / float64(g.Nx-1)
	dt := 0.2 * h * h / forecastAlpha
	steps := math.Ceil(ForecastHorizon / dt)
	return steps * float64(g.Nx*g.Ny) * 7
}

// executeForecast handles forecast(temp): reconstruct, pin sources, step
// forward, report the predicted field.
func (rt *Runtime) executeForecast(q *query.Query, sel func(*sensornet.Node) bool, at float64) (*Result, error) {
	f := rt.features(q, sel)
	f.ComputeOps = rt.forecastOps()
	dec, err := rt.DM.Choose(q, f)
	if err != nil {
		return nil, err
	}
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
	ambient := rt.ambient()
	g.SetBoundary(ambient)
	samples := make([]pde.Sample, 0, len(col.Readings))
	var sources []pde.Sample
	for _, r := range col.Readings {
		n := rt.Net.Node(r.Sensor)
		if n == nil {
			continue
		}
		s := pde.Sample{X: n.Pos.X, Y: n.Pos.Y, Value: r.Value}
		samples = append(samples, s)
		if r.Value > ambient+forecastSourceThreshold {
			sources = append(sources, s)
		}
	}
	// Current state everywhere, then persistent sources pinned.
	pde.FillIDW(g, rt.Cfg.Net.Width, rt.Cfg.Net.Height, samples, 4)
	pde.PinSamples(g, rt.Cfg.Net.Width, rt.Cfg.Net.Height, sources)

	tc := pde.TransientConfig{Alpha: forecastAlpha, Horizon: ForecastHorizon}
	var tr pde.TransientResult
	timeSec := col.Latency
	switch dec.Model {
	case partition.ModelGrid:
		placement, err := rt.Cluster.Submit(grid.Job{
			Name:        "forecast",
			Ops:         f.ComputeOps,
			InputBytes:  col.Coverage * sensornet.RawReadingBytes,
			OutputBytes: rt.Cfg.PDE.Nx * rt.Cfg.PDE.Ny * 8,
			Run: func(workers int) (any, error) {
				tc.Workers = workers
				return pde.StepHeat2D(g, tc)
			},
		})
		if err != nil {
			return nil, err
		}
		out, ok := placement.Output.(pde.TransientResult)
		if !ok {
			return nil, fmt.Errorf("core: forecast returned %T", placement.Output)
		}
		tr = out
		timeSec += placement.ResponseTime()
	default:
		tc.Workers = 1
		tr, err = pde.StepHeat2D(g, tc)
		if err != nil {
			return nil, err
		}
		timeSec += tr.Ops / rt.Cfg.Platform.BaseOpsPerSec
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
		Value: peak, Field: g,
		Solve:    pde.Result{Iterations: tr.Steps, Converged: true, Ops: tr.Ops},
		Coverage: col.Coverage,
		EnergyJ:  col.EnergyJ, TimeSec: timeSec,
		Messages: col.Messages, Bytes: col.Bytes,
	}, nil
}

// executeSolve3D handles isosurface(temp): the paper's "3D partial
// differential equation" — a steady solve over the building volume with
// sensor readings pinned at their instrument height.
func (rt *Runtime) executeSolve3D(q *query.Query, sel func(*sensornet.Node) bool, at float64) (*Result, error) {
	const nz = 9 // vertical resolution of the building volume
	f := rt.features(q, sel)
	f.ComputeOps = pde.EstimateJacobiOps(rt.Cfg.PDE.Nx, rt.Cfg.PDE.Ny, rt.Cfg.PDE.Tol) * float64(nz)
	dec, err := rt.DM.Choose(q, f)
	if err != nil {
		return nil, err
	}
	col, err := sensornet.DirectStrategy{}.Collect(rt.Net, sensornet.CollectRequest{
		Agg: sensornet.AggMax, Select: sel, Time: at,
	})
	if err != nil {
		return nil, err
	}

	g3, err := pde.NewGrid3D(rt.Cfg.PDE.Nx, rt.Cfg.PDE.Ny, nz, rt.Cfg.Net.Width/float64(rt.Cfg.PDE.Nx-1))
	if err != nil {
		return nil, err
	}
	ambient := rt.ambient()
	g3.SetBoundary(ambient)
	// Sensors sit at instrument height: the middle z layer.
	zmid := nz / 2
	for _, r := range col.Readings {
		n := rt.Net.Node(r.Sensor)
		if n == nil {
			continue
		}
		x := int(math.Round(n.Pos.X / rt.Cfg.Net.Width * float64(g3.Nx-1)))
		y := int(math.Round(n.Pos.Y / rt.Cfg.Net.Height * float64(g3.Ny-1)))
		x = clampInt(x, 0, g3.Nx-1)
		y = clampInt(y, 0, g3.Ny-1)
		g3.Pin(x, y, zmid, r.Value)
	}

	opt := pde.Options{Tol: rt.Cfg.PDE.Tol}
	var solve pde.Result
	timeSec := col.Latency
	switch dec.Model {
	case partition.ModelGrid:
		placement, err := rt.Cluster.Submit(grid.Job{
			Name:        "pde-solve-3d",
			Ops:         f.ComputeOps,
			InputBytes:  col.Coverage * sensornet.RawReadingBytes,
			OutputBytes: g3.Nx * g3.Ny * g3.Nz * 8,
			Run: func(workers int) (any, error) {
				opt.Workers = workers
				return pde.SolveSOR3D(g3, opt)
			},
		})
		if err != nil {
			return nil, err
		}
		out, ok := placement.Output.(pde.Result)
		if !ok {
			return nil, fmt.Errorf("core: 3d solve returned %T", placement.Output)
		}
		solve = out
		timeSec += placement.ResponseTime()
	default:
		opt.Workers = 1
		solve, err = pde.SolveSOR3D(g3, opt)
		if err != nil {
			return nil, err
		}
		timeSec += solve.Ops / rt.Cfg.Platform.BaseOpsPerSec
	}
	if !solve.Converged {
		return nil, fmt.Errorf("core: 3D solve did not converge (residual %g)", solve.Residual)
	}

	peak := math.Inf(-1)
	for _, v := range g3.V {
		if v > peak {
			peak = v
		}
	}
	rt.DM.Observe(f, dec.Model, partition.Measured{EnergyJ: col.EnergyJ, TimeSec: timeSec})
	rt.clock += timeSec
	return &Result{
		Query: q, Kind: q.Kind(), Model: dec.Model, Learned: dec.Learned,
		Value: peak, Field3D: g3, Solve: solve, Coverage: col.Coverage,
		EnergyJ: col.EnergyJ, TimeSec: timeSec,
		Messages: col.Messages, Bytes: col.Bytes,
	}, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
