package pde

import (
	"fmt"
	"math"
)

// Grid3D is a regular Nx×Ny×Nz grid for the paper's "3D partial
// differential equation" (steady-state heat inside a building volume).
type Grid3D struct {
	Nx, Ny, Nz int
	H          float64
	V          []float64
	Fixed      []bool
	Source     []float64
}

// NewGrid3D allocates the grid with all six faces fixed.
func NewGrid3D(nx, ny, nz int, h float64) (*Grid3D, error) {
	if nx < 3 || ny < 3 || nz < 3 {
		return nil, fmt.Errorf("pde: grid %dx%dx%d too small", nx, ny, nz)
	}
	if h <= 0 {
		return nil, fmt.Errorf("pde: non-positive spacing %v", h)
	}
	g := &Grid3D{Nx: nx, Ny: ny, Nz: nz, H: h,
		V:      make([]float64, nx*ny*nz),
		Fixed:  make([]bool, nx*ny*nz),
		Source: make([]float64, nx*ny*nz),
	}
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				if x == 0 || y == 0 || z == 0 || x == nx-1 || y == ny-1 || z == nz-1 {
					g.Fixed[g.Idx(x, y, z)] = true
				}
			}
		}
	}
	return g, nil
}

// Idx returns the flat index of (x, y, z).
func (g *Grid3D) Idx(x, y, z int) int { return (z*g.Ny+y)*g.Nx + x }

// At returns the value at (x, y, z).
func (g *Grid3D) At(x, y, z int) float64 { return g.V[g.Idx(x, y, z)] }

// Pin assigns a Dirichlet value at (x, y, z).
func (g *Grid3D) Pin(x, y, z int, v float64) {
	i := g.Idx(x, y, z)
	g.V[i] = v
	g.Fixed[i] = true
}

// SetBoundary pins all six faces to v.
func (g *Grid3D) SetBoundary(v float64) {
	for i, f := range g.Fixed {
		if f {
			g.V[i] = v
		}
	}
}

// Residual returns the max-norm residual of the 7-point stencil over
// non-fixed cells.
func (g *Grid3D) Residual() float64 {
	max := 0.0
	h2 := g.H * g.H
	nxy := g.Nx * g.Ny
	for z := 1; z < g.Nz-1; z++ {
		for y := 1; y < g.Ny-1; y++ {
			for x := 1; x < g.Nx-1; x++ {
				i := g.Idx(x, y, z)
				if g.Fixed[i] {
					continue
				}
				want := (g.V[i-1] + g.V[i+1] + g.V[i-g.Nx] + g.V[i+g.Nx] + g.V[i-nxy] + g.V[i+nxy] - h2*g.Source[i]) / 6
				if r := math.Abs(g.V[i] - want); r > max {
					max = r
				}
			}
		}
	}
	return max
}
