package pde

import "math"

// SolveSOR3D runs red-black successive over-relaxation on a 3-D grid,
// banded over z-slabs. Cells are coloured by (x+y+z) parity so each
// half-sweep only reads the other colour.
func SolveSOR3D(g *Grid3D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	// Spectral radius of 3-D Jacobi: (cos πx + cos πy + cos πz)/3.
	rho := (math.Cos(math.Pi/float64(g.Nx)) + math.Cos(math.Pi/float64(g.Ny)) + math.Cos(math.Pi/float64(g.Nz))) / 3
	omega := 2 / (1 + math.Sqrt(1-rho*rho))
	slabs := newStencilBands(1, g.Nz-1, opt.Workers, (g.Nx-2)*(g.Ny-2)/2)
	h2 := g.H * g.H
	red := func(z0, z1 int) float64 { return sorSlabs(g, h2, omega, 0, z0, z1) }
	black := func(z0, z1 int) float64 { return sorSlabs(g, h2, omega, 1, z0, z1) }

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		d1 := slabs.sweep(red)
		d2 := slabs.sweep(black)
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
		Converged:  iter < opt.MaxIter || g.Residual() < opt.Tol*10,
		Residual:   g.Residual(),
		Ops:        float64(iter) * float64(g.Nx*g.Ny*g.Nz) * 10,
	}, nil
}

// sorSlabs relaxes the cells of one colour in slabs [z0, z1) and returns
// the largest update it made.
func sorSlabs(g *Grid3D, h2, omega float64, colour, z0, z1 int) float64 {
	nxy := g.Nx * g.Ny
	maxd := 0.0
	for z := z0; z < z1; z++ {
		for y := 1; y < g.Ny-1; y++ {
			base := (z*g.Ny + y) * g.Nx
			x0 := 1
			if (x0+y+z)%2 != colour {
				x0++
			}
			for x := x0; x < g.Nx-1; x += 2 {
				i := base + x
				if g.Fixed[i] {
					continue
				}
				gs := (g.V[i-1] + g.V[i+1] + g.V[i-g.Nx] + g.V[i+g.Nx] + g.V[i-nxy] + g.V[i+nxy] - h2*g.Source[i]) / 6
				d := omega * (gs - g.V[i])
				g.V[i] += d
				if ad := math.Abs(d); ad > maxd {
					maxd = ad
				}
			}
		}
	}
	return maxd
}
