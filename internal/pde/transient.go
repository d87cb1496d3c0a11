package pde

import (
	"fmt"
	"math"
)

// TransientConfig parameterises an explicit (FTCS) time integration of the
// heat equation ∂u/∂t = α ∇²u. It backs the runtime's forecast queries:
// given the field reconstructed from current sensor readings, predict how
// heat will have diffused a horizon into the future.
type TransientConfig struct {
	// Alpha is the thermal diffusivity in m²/s.
	Alpha float64
	// Horizon is the forecast span in seconds.
	Horizon float64
	// Workers is the band-parallel worker count (0 = GOMAXPROCS).
	Workers int
}

// TransientResult reports a completed integration.
type TransientResult struct {
	// Steps is the number of time steps taken.
	Steps int
	// Dt is the step size used.
	Dt float64
	// Ops estimates the floating-point work for the cost model.
	Ops float64
}

// StepHeat2D integrates the grid forward by cfg.Horizon. Fixed cells
// (boundary and any pinned sources) hold their values, acting as Dirichlet
// conditions; everything else diffuses.
func StepHeat2D(g *Grid2D, cfg TransientConfig) (TransientResult, error) {
	if cfg.Alpha <= 0 {
		return TransientResult{}, fmt.Errorf("pde: diffusivity must be positive, got %v", cfg.Alpha)
	}
	if cfg.Horizon <= 0 {
		return TransientResult{}, fmt.Errorf("pde: forecast horizon must be positive, got %v", cfg.Horizon)
	}
	h2 := g.H * g.H
	// Stability bound with a safety margin: explicit FTCS requires
	// α·dt/h² ≤ 1/4 in 2-D.
	dt := 0.2 * h2 / cfg.Alpha
	steps := int(math.Ceil(cfg.Horizon / dt))
	if steps < 1 {
		steps = 1
	}
	dt = cfg.Horizon / float64(steps)
	lambda := cfg.Alpha * dt / h2
	if lambda > 0.25+1e-12 {
		return TransientResult{}, fmt.Errorf("pde: unstable step (lambda=%v)", lambda)
	}

	rows := newStencilBands(1, g.Ny-1, cfg.Workers, g.Nx-2)
	next := append([]float64(nil), g.V...)
	cur := g.V
	step := func(y0, y1 int) float64 {
		for y := y0; y < y1; y++ {
			base := y * g.Nx
			for x := 1; x < g.Nx-1; x++ {
				i := base + x
				if g.Fixed[i] {
					next[i] = cur[i]
					continue
				}
				lap := cur[i-1] + cur[i+1] + cur[i-g.Nx] + cur[i+g.Nx] - 4*cur[i]
				next[i] = cur[i] + lambda*lap
			}
		}
		return 0
	}
	for s := 0; s < steps; s++ {
		cur = g.V
		rows.sweep(step)
		g.V, next = next, g.V
	}
	return TransientResult{
		Steps: steps,
		Dt:    dt,
		Ops:   float64(steps) * float64(g.Nx*g.Ny) * 7,
	}, nil
}

// FillIDW initialises every non-fixed cell of the grid by inverse-distance
// interpolation from scattered samples — the initial condition for a
// forecast, where sensor readings seed the whole field rather than pinning
// isolated cells.
func FillIDW(g *Grid2D, width, height float64, samples []Sample, k int) {
	if len(samples) == 0 {
		return
	}
	for y := 0; y < g.Ny; y++ {
		for x := 0; x < g.Nx; x++ {
			i := g.Idx(x, y)
			if g.Fixed[i] {
				continue
			}
			px := float64(x) / float64(g.Nx-1) * width
			py := float64(y) / float64(g.Ny-1) * height
			g.V[i] = IDW(samples, px, py, k)
		}
	}
}
