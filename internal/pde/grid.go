// Package pde provides parallel iterative solvers for steady-state heat
// (Laplace/Poisson) problems on regular 2-D and 3-D grids. It is the
// numerical substrate behind the paper's "complex query" example: "a 3D
// partial differential equation needs to be set up, grid points populated
// by data from the sensors and static data about building material and
// boundary conditions, and then solved."
//
// Three solver families are provided — Jacobi, red-black SOR, and conjugate
// gradient — all matrix-free over the standard 5-point (7-point in 3-D)
// Laplacian stencil, parallelised across row bands with goroutines.
package pde

import (
	"errors"
	"fmt"
	"math"
)

// Grid2D is a regular Nx×Ny grid of temperatures. Cells flagged Fixed hold
// Dirichlet values (boundaries and sensor-pinned interior points) that
// solvers never modify.
type Grid2D struct {
	Nx, Ny int
	// H is the uniform grid spacing in meters.
	H float64
	// V holds the values in row-major order: V[y*Nx+x].
	V []float64
	// Fixed marks Dirichlet cells.
	Fixed []bool
	// Source is the Poisson right-hand side f (zero for Laplace).
	Source []float64
}

// NewGrid2D allocates an Nx×Ny grid with spacing h, all values zero and
// the outer boundary marked fixed.
func NewGrid2D(nx, ny int, h float64) (*Grid2D, error) {
	if nx < 3 || ny < 3 {
		return nil, fmt.Errorf("pde: grid %dx%d too small (need >= 3x3)", nx, ny)
	}
	if h <= 0 {
		return nil, fmt.Errorf("pde: non-positive spacing %v", h)
	}
	g := &Grid2D{
		Nx: nx, Ny: ny, H: h,
		V:      make([]float64, nx*ny),
		Fixed:  make([]bool, nx*ny),
		Source: make([]float64, nx*ny),
	}
	for x := 0; x < nx; x++ {
		g.Fixed[x] = true
		g.Fixed[(ny-1)*nx+x] = true
	}
	for y := 0; y < ny; y++ {
		g.Fixed[y*nx] = true
		g.Fixed[y*nx+nx-1] = true
	}
	return g, nil
}

// Idx returns the flat index of (x, y).
func (g *Grid2D) Idx(x, y int) int { return y*g.Nx + x }

// At returns the value at (x, y).
func (g *Grid2D) At(x, y int) float64 { return g.V[y*g.Nx+x] }

// Set assigns the value at (x, y) without fixing it.
func (g *Grid2D) Set(x, y int, v float64) { g.V[y*g.Nx+x] = v }

// Pin assigns a Dirichlet value at (x, y): solvers keep it constant. Use it
// for boundary conditions and for interior cells pinned to sensor readings.
func (g *Grid2D) Pin(x, y int, v float64) {
	i := g.Idx(x, y)
	g.V[i] = v
	g.Fixed[i] = true
}

// SetBoundary pins the entire outer boundary to v.
func (g *Grid2D) SetBoundary(v float64) {
	for x := 0; x < g.Nx; x++ {
		g.Pin(x, 0, v)
		g.Pin(x, g.Ny-1, v)
	}
	for y := 0; y < g.Ny; y++ {
		g.Pin(0, y, v)
		g.Pin(g.Nx-1, y, v)
	}
}

// Clone deep-copies the grid.
func (g *Grid2D) Clone() *Grid2D {
	c := &Grid2D{Nx: g.Nx, Ny: g.Ny, H: g.H,
		V:      append([]float64(nil), g.V...),
		Fixed:  append([]bool(nil), g.Fixed...),
		Source: append([]float64(nil), g.Source...),
	}
	return c
}

// Residual returns the max-norm of the discrete Laplacian residual over
// non-fixed cells: |v[i,j] - (sum of 4 neighbors - h²·f)/4|.
func (g *Grid2D) Residual() float64 {
	max := 0.0
	h2 := g.H * g.H
	for y := 1; y < g.Ny-1; y++ {
		for x := 1; x < g.Nx-1; x++ {
			i := g.Idx(x, y)
			if g.Fixed[i] {
				continue
			}
			want := (g.V[i-1] + g.V[i+1] + g.V[i-g.Nx] + g.V[i+g.Nx] - h2*g.Source[i]) / 4
			r := math.Abs(g.V[i] - want)
			if r > max {
				max = r
			}
		}
	}
	return max
}

// Options configures an iterative solve.
type Options struct {
	// Tol is the convergence threshold on the max-norm update (Jacobi,
	// SOR) or residual norm (CG). Default 1e-6.
	Tol float64
	// MaxIter bounds the iteration count. Default 10000.
	MaxIter int
	// Workers is the number of goroutines; 0 means GOMAXPROCS. SOR's
	// over-relaxation factor is always OptimalOmega for the grid.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 10000
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	return o
}

// Result reports a completed solve.
type Result struct {
	// Iterations actually performed.
	Iterations int
	// Converged is true when the tolerance was met within MaxIter.
	Converged bool
	// Residual is the final discrete residual max-norm.
	Residual float64
	// Ops estimates the floating-point work performed (for the decision
	// maker's cost model).
	Ops float64
}

// ErrDiverged reports a solve that failed to make progress.
var ErrDiverged = errors.New("pde: solver diverged")

// EstimateJacobiOps predicts the work of a Jacobi solve to tolerance tol on
// an n-unknown grid: iterations scale with the grid dimension squared times
// log(1/tol) for the Laplacian.
func EstimateJacobiOps(nx, ny int, tol float64) float64 {
	n := float64(nx * ny)
	dim := math.Max(float64(nx), float64(ny))
	iters := 0.5 * dim * dim * math.Log(1/tol) / math.Ln10
	return iters * n * 6
}
