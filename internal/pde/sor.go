package pde

import "math"

// OptimalOmega returns the asymptotically optimal SOR over-relaxation
// factor for the Laplacian on an nx×ny grid.
func OptimalOmega(nx, ny int) float64 {
	// Spectral radius of the Jacobi iteration matrix for the 5-point
	// Laplacian: rho = (cos(pi/nx) + cos(pi/ny)) / 2.
	rho := (math.Cos(math.Pi/float64(nx)) + math.Cos(math.Pi/float64(ny))) / 2
	return 2 / (1 + math.Sqrt(1-rho*rho))
}

// SolveSOR runs red-black successive over-relaxation: cells are coloured
// like a checkerboard so each colour's update touches only the other
// colour, making every half-sweep embarrassingly parallel.
func SolveSOR(g *Grid2D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	omega := OptimalOmega(g.Nx, g.Ny)
	rows := newStencilBands(1, g.Ny-1, opt.Workers, (g.Nx-2)/2)
	h2 := g.H * g.H

	red := func(y0, y1 int) float64 { return sorRows(g, h2, omega, 0, y0, y1) }
	black := func(y0, y1 int) float64 { return sorRows(g, h2, omega, 1, y0, y1) }

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		d1 := rows.sweep(red)
		d2 := rows.sweep(black)
		maxd := math.Max(d1, d2)
		if math.IsNaN(maxd) || math.IsInf(maxd, 0) {
			return Result{Iterations: iter + 1}, ErrDiverged
		}
		if maxd < opt.Tol {
			iter++
			break
		}
	}
	return Result{
		Iterations: iter,
		Converged:  g.Residual() < opt.Tol*10 || iter < opt.MaxIter,
		Residual:   g.Residual(),
		Ops:        float64(iter) * float64(g.Nx*g.Ny) * 8,
	}, nil
}

// sorRows relaxes the cells of one colour in rows [y0, y1) and returns the
// largest update it made. It is a plain function rather than a closure made
// per colour: in closures returned from a factory the compiler stopped
// inlining math.Abs, which cost a fifth of the sweep.
func sorRows(g *Grid2D, h2, omega float64, colour, y0, y1 int) float64 {
	maxd := 0.0
	for y := y0; y < y1; y++ {
		base := y * g.Nx
		// Start x so that (x+y) % 2 == colour.
		x0 := 1
		if (x0+y)%2 != colour {
			x0++
		}
		for x := x0; x < g.Nx-1; x += 2 {
			i := base + x
			if g.Fixed[i] {
				continue
			}
			gs := (g.V[i-1] + g.V[i+1] + g.V[i-g.Nx] + g.V[i+g.Nx] - h2*g.Source[i]) / 4
			d := omega * (gs - g.V[i])
			g.V[i] += d
			if ad := math.Abs(d); ad > maxd {
				maxd = ad
			}
		}
	}
	return maxd
}
