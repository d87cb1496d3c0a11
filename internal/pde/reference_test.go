package pde

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// The stencil solvers as they stood when every sweep spawned one goroutine
// per Options.Workers band (DESIGN.md "Query handler path"), kept as
// oracles: whatever number of bands the solvers now choose, grids,
// iteration counts and residuals must be bit-identical to these.

func referenceSolveSOR(g *Grid2D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	omega := OptimalOmega(g.Nx, g.Ny)
	rows := bands(1, g.Ny-1, opt.Workers)
	h2 := g.H * g.H
	deltas := make([]float64, len(rows))
	var wg sync.WaitGroup

	sweep := func(colour int) float64 {
		for bi, band := range rows {
			wg.Add(1)
			go func(bi, y0, y1 int) {
				defer wg.Done()
				maxd := 0.0
				for y := y0; y < y1; y++ {
					base := y * g.Nx
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
				deltas[bi] = maxd
			}(bi, band[0], band[1])
		}
		wg.Wait()
		maxd := 0.0
		for _, d := range deltas {
			if d > maxd {
				maxd = d
			}
		}
		return maxd
	}

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		d1 := sweep(0)
		d2 := sweep(1)
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

func referenceSolveSOR3D(g *Grid3D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	rho := (math.Cos(math.Pi/float64(g.Nx)) + math.Cos(math.Pi/float64(g.Ny)) + math.Cos(math.Pi/float64(g.Nz))) / 3
	omega := 2 / (1 + math.Sqrt(1-rho*rho))
	slabs := bands(1, g.Nz-1, opt.Workers)
	h2 := g.H * g.H
	nxy := g.Nx * g.Ny
	deltas := make([]float64, len(slabs))
	var wg sync.WaitGroup

	sweep := func(colour int) float64 {
		for bi, slab := range slabs {
			wg.Add(1)
			go func(bi, z0, z1 int) {
				defer wg.Done()
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
				deltas[bi] = maxd
			}(bi, slab[0], slab[1])
		}
		wg.Wait()
		maxd := 0.0
		for _, d := range deltas {
			if d > maxd {
				maxd = d
			}
		}
		return maxd
	}

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		maxd := math.Max(sweep(0), sweep(1))
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

func referenceSolveJacobi(g *Grid2D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	next := append([]float64(nil), g.V...)
	rows := bands(1, g.Ny-1, opt.Workers)
	h2 := g.H * g.H
	deltas := make([]float64, len(rows))
	var wg sync.WaitGroup

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		cur := g.V
		for bi, band := range rows {
			wg.Add(1)
			go func(bi int, y0, y1 int) {
				defer wg.Done()
				maxd := 0.0
				for y := y0; y < y1; y++ {
					base := y * g.Nx
					for x := 1; x < g.Nx-1; x++ {
						i := base + x
						if g.Fixed[i] {
							next[i] = cur[i]
							continue
						}
						v := (cur[i-1] + cur[i+1] + cur[i-g.Nx] + cur[i+g.Nx] - h2*g.Source[i]) / 4
						d := math.Abs(v - cur[i])
						if d > maxd {
							maxd = d
						}
						next[i] = v
					}
				}
				deltas[bi] = maxd
			}(bi, band[0], band[1])
		}
		wg.Wait()
		g.V, next = next, g.V
		maxd := 0.0
		for _, d := range deltas {
			if d > maxd {
				maxd = d
			}
		}
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
		Converged:  iter < opt.MaxIter || g.Residual() < opt.Tol*4,
		Residual:   g.Residual(),
		Ops:        float64(iter) * float64(g.Nx*g.Ny) * 6,
	}, nil
}

// roomGrid is an n×n room at 20° with a hot cell off centre and a source
// term, so neither symmetry nor zeros hide an ordering difference.
func roomGrid(n int) *Grid2D {
	g, _ := NewGrid2D(n, n, 1.0/float64(n-1))
	g.SetBoundary(20)
	g.Pin(n/2+1, n/3, 500)
	g.Source[g.Idx(n/4, n/2)] = -3e4
	return g
}

func roomGrid3D(n int) *Grid3D {
	g, _ := NewGrid3D(n, n, n, 1.0/float64(n-1))
	g.SetBoundary(20)
	g.Pin(n/2+1, n/3, n/2, 500)
	return g
}

var bandWorkerCounts = []int{1, 2, 16, 0}

// TestStencilSolversEqualReference: at every worker count and on grids on
// both sides of the single-band threshold, each solver's grid is == to the
// reference's cell for cell, with the same iteration count, residual and
// modelled operation count.
func TestStencilSolversEqualReference(t *testing.T) {
	sameResult := func(t *testing.T, got, want Result, gotV, wantV []float64) {
		t.Helper()
		if got != want {
			t.Fatalf("result %+v, reference %+v", got, want)
		}
		if !slices.Equal(gotV, wantV) {
			t.Fatal("grids differ")
		}
	}
	// The small grids run to convergence; MaxIter keeps the large ones short
	// under the race detector, and agreement after a fixed number of sweeps
	// is as strict as agreement at convergence.
	for n, maxIter := range map[int]int{33: 2500, 257: 40} {
		for _, workers := range bandWorkerCounts {
			opt := Options{Tol: 1e-6, Workers: workers, MaxIter: maxIter}
			t.Run(fmt.Sprintf("sor/%d/workers=%d", n, workers), func(t *testing.T) {
				g, ref := roomGrid(n), roomGrid(n)
				got, err := SolveSOR(g, opt)
				want, errRef := referenceSolveSOR(ref, opt)
				if err != nil || errRef != nil {
					t.Fatal(err, errRef)
				}
				sameResult(t, got, want, g.V, ref.V)
			})
			t.Run(fmt.Sprintf("jacobi/%d/workers=%d", n, workers), func(t *testing.T) {
				g, ref := roomGrid(n), roomGrid(n)
				got, err := SolveJacobi(g, opt)
				want, errRef := referenceSolveJacobi(ref, opt)
				if err != nil || errRef != nil {
					t.Fatal(err, errRef)
				}
				sameResult(t, got, want, g.V, ref.V)
			})
		}
	}
	for n, maxIter := range map[int]int{17: 500, 65: 12} {
		for _, workers := range bandWorkerCounts {
			opt := Options{Tol: 1e-6, Workers: workers, MaxIter: maxIter}
			t.Run(fmt.Sprintf("sor3d/%d/workers=%d", n, workers), func(t *testing.T) {
				g, ref := roomGrid3D(n), roomGrid3D(n)
				got, err := SolveSOR3D(g, opt)
				want, errRef := referenceSolveSOR3D(ref, opt)
				if err != nil || errRef != nil {
					t.Fatal(err, errRef)
				}
				sameResult(t, got, want, g.V, ref.V)
			})
		}
	}
}

// TestStencilSweepsIgnoreWorkerCount covers the sweep that shares the
// banding but has no reference body above: the explicit heat step gives the
// grid a single worker gives.
func TestStencilSweepsIgnoreWorkerCount(t *testing.T) {
	for _, workers := range bandWorkerCounts[1:] {
		flat, split := roomGrid(129), roomGrid(129)
		cfg := TransientConfig{Alpha: 1e-4, Horizon: 2, Workers: 1}
		wantT, err := StepHeat2D(flat, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = workers
		gotT, err := StepHeat2D(split, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gotT != wantT || !slices.Equal(split.V, flat.V) {
			t.Fatalf("heat step workers=%d: %+v, serial %+v", workers, gotT, wantT)
		}
	}
}

// TestSingleBandStartsNoGoroutine pins the point of the band bound: a sweep
// too small to split runs on the caller's goroutine, whatever Workers says.
func TestSingleBandStartsNoGoroutine(t *testing.T) {
	b := newStencilBands(1, 32, 16, 15) // a 33×33 red-black half-sweep
	if len(b.rows) != 1 {
		t.Fatalf("33×33 half-sweep split into %d bands", len(b.rows))
	}
	if b := newStencilBands(1, 256, 16, 127); len(b.rows) < 8 {
		t.Fatalf("257×257 half-sweep split into only %d bands for 16 workers", len(b.rows))
	}
	before := runtime.NumGoroutine()
	during, calls := 0, 0
	got := b.sweep(func(lo, hi int) float64 {
		during, calls = runtime.NumGoroutine(), calls+1
		return float64(hi - lo)
	})
	if got != 31 || calls != 1 || during != before {
		t.Fatalf("single-band sweep returned %v after %d calls with %d goroutines (%d before)", got, calls, during, before)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		b.sweep(func(lo, hi int) float64 { return 0 })
	}); allocs != 0 {
		t.Fatalf("single-band sweep allocates %v times; starting a goroutine would", allocs)
	}
}
