package pde

import (
	"math"
	"sync"
)

// SolvePCG solves the discrete Poisson system with conjugate gradients
// preconditioned by symmetric SOR (SSOR). The preconditioner solve is a
// forward red-black SOR half-sweep followed by a backward one, so it keeps
// the band-parallel structure of the other solvers while cutting CG's
// iteration count roughly in half on large grids — the ablation DESIGN.md
// calls out for the grid substrate.
func SolvePCG(g *Grid2D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	const omega = 1.2 // SSOR prefers milder over-relaxation than plain SOR
	n := g.Nx * g.Ny
	h2 := g.H * g.H
	rows := bands(1, g.Ny-1, opt.Workers)
	var wg sync.WaitGroup

	// Assemble b and initial iterate exactly as SolveCG does.
	b := make([]float64, n)
	x := make([]float64, n)
	for y := 1; y < g.Ny-1; y++ {
		for xx := 1; xx < g.Nx-1; xx++ {
			i := g.Idx(xx, y)
			if g.Fixed[i] {
				continue
			}
			bi := -h2 * g.Source[i]
			for _, j := range [4]int{i - 1, i + 1, i - g.Nx, i + g.Nx} {
				if g.Fixed[j] {
					bi += g.V[j]
				}
			}
			b[i] = bi
			x[i] = g.V[i]
		}
	}

	applyA := func(out, in []float64) {
		for _, band := range rows {
			wg.Add(1)
			go func(y0, y1 int) {
				defer wg.Done()
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					for xx := 1; xx < g.Nx-1; xx++ {
						i := base + xx
						if g.Fixed[i] {
							continue
						}
						s := 4 * in[i]
						for _, j := range [4]int{i - 1, i + 1, i - g.Nx, i + g.Nx} {
							if !g.Fixed[j] {
								s -= in[j]
							}
						}
						out[i] = s
					}
				}
			}(band[0], band[1])
		}
		wg.Wait()
	}

	partials := make([]float64, len(rows))
	dot := func(a, c []float64) float64 {
		for bi, band := range rows {
			wg.Add(1)
			go func(bi, y0, y1 int) {
				defer wg.Done()
				s := 0.0
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					for xx := 1; xx < g.Nx-1; xx++ {
						i := base + xx
						if !g.Fixed[i] {
							s += a[i] * c[i]
						}
					}
				}
				partials[bi] = s
			}(bi, band[0], band[1])
		}
		wg.Wait()
		s := 0.0
		for _, p := range partials {
			s += p
		}
		return s
	}

	// ssorApply computes z ≈ M⁻¹ r with one symmetric red-black sweep of
	// the error equation A z = r (z starts at 0, Dirichlet cells stay 0).
	z := make([]float64, n)
	colourSweep := func(r []float64, colour int) {
		for _, band := range rows {
			wg.Add(1)
			go func(y0, y1 int) {
				defer wg.Done()
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					x0 := 1
					if (x0+y)%2 != colour {
						x0++
					}
					for xx := x0; xx < g.Nx-1; xx += 2 {
						i := base + xx
						if g.Fixed[i] {
							continue
						}
						s := r[i]
						for _, j := range [4]int{i - 1, i + 1, i - g.Nx, i + g.Nx} {
							if !g.Fixed[j] {
								s += z[j]
							}
						}
						gs := s / 4
						z[i] += omega * (gs - z[i])
					}
				}
			}(band[0], band[1])
		}
		wg.Wait()
	}
	precond := func(r []float64) []float64 {
		for i := range z {
			z[i] = 0
		}
		colourSweep(r, 0)
		colourSweep(r, 1)
		colourSweep(r, 1) // backward half of the symmetric sweep
		colourSweep(r, 0)
		return z
	}

	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)
	applyA(ap, x)
	for i := range r {
		if !g.Fixed[i] {
			r[i] = b[i] - ap[i]
		}
	}
	zr := precond(r)
	copy(p, zr)
	rz := dot(r, zr)
	tol2 := opt.Tol * opt.Tol * math.Max(1, dot(b, b))

	iter := 0
	for ; iter < opt.MaxIter && dot(r, r) > tol2; iter++ {
		applyA(ap, p)
		pap := dot(p, ap)
		if pap <= 0 || math.IsNaN(pap) {
			return Result{Iterations: iter}, ErrDiverged
		}
		alpha := rz / pap
		for _, band := range rows {
			wg.Add(1)
			go func(y0, y1 int) {
				defer wg.Done()
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					for xx := 1; xx < g.Nx-1; xx++ {
						i := base + xx
						if !g.Fixed[i] {
							x[i] += alpha * p[i]
							r[i] -= alpha * ap[i]
						}
					}
				}
			}(band[0], band[1])
		}
		wg.Wait()
		zr2 := precond(r)
		rzNew := dot(r, zr2)
		beta := rzNew / rz
		rz = rzNew
		for _, band := range rows {
			wg.Add(1)
			go func(y0, y1 int) {
				defer wg.Done()
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					for xx := 1; xx < g.Nx-1; xx++ {
						i := base + xx
						if !g.Fixed[i] {
							p[i] = zr2[i] + beta*p[i]
						}
					}
				}
			}(band[0], band[1])
		}
		wg.Wait()
	}

	for i := range x {
		if !g.Fixed[i] {
			g.V[i] = x[i]
		}
	}
	return Result{
		Iterations: iter,
		Converged:  dot(r, r) <= tol2,
		Residual:   g.Residual(),
		Ops:        float64(iter) * float64(n) * 40,
	}, nil
}
