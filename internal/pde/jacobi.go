package pde

import (
	"math"
	"runtime"
	"sync"
)

// bands splits rows [lo, hi) into at most workers contiguous bands.
func bands(lo, hi, workers int) [][2]int {
	n := hi - lo
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		a := lo + n*w/workers
		b := lo + n*(w+1)/workers
		if a < b {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// minBandCells is the least number of cell updates per sweep worth a
// goroutine of its own. Starting a goroutine and waiting for it measured
// 0.3–0.8 µs and one stencil update 2.7–3.1 ns (DESIGN.md "Query handler
// path"), so a goroutine costs what 100–300 updates cost; at 2048 updates
// that is under a tenth of the band's own work.
const minBandCells = 2048

// stencilBands holds the row bands of a stencil sweep whose result does not
// depend on how rows are split: every update reads only cells the same
// sweep does not write (the other colour in red-black SOR, the previous
// grid in Jacobi and the explicit time step) and bands combine by max. That
// freedom lets the band count follow the work instead of Options.Workers
// alone. CG and PCG reduce dot products band by band, so they keep bands.
type stencilBands struct {
	rows   [][2]int
	deltas []float64
	wg     sync.WaitGroup
}

// newStencilBands splits rows [lo, hi) into at most workers bands, and no
// more than leave each band minBandCells updates per sweep, where a sweep
// updates cellsPerRow cells in every row.
func newStencilBands(lo, hi, workers, cellsPerRow int) *stencilBands {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if most := (hi - lo) * cellsPerRow / minBandCells; workers > most {
		workers = max(most, 1)
	}
	rows := bands(lo, hi, workers)
	return &stencilBands{rows: rows, deltas: make([]float64, len(rows))}
}

// sweep runs update over every band and returns the largest value a band
// reported. The caller's goroutine takes the last band itself, so a single
// band starts no goroutine at all.
func (b *stencilBands) sweep(update func(lo, hi int) float64) float64 {
	last := len(b.rows) - 1
	if last < 0 {
		return 0
	}
	for bi, band := range b.rows[:last] {
		b.wg.Add(1)
		go func(bi, lo, hi int) {
			defer b.wg.Done()
			b.deltas[bi] = update(lo, hi)
		}(bi, band[0], band[1])
	}
	b.deltas[last] = update(b.rows[last][0], b.rows[last][1])
	b.wg.Wait()
	maxd := 0.0
	for _, d := range b.deltas {
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// SolveJacobi runs damped-free Jacobi iteration on the grid until the
// max-norm update drops below Tol. The grid is updated in place.
func SolveJacobi(g *Grid2D, opt Options) (Result, error) {
	opt = opt.withDefaults()
	next := append([]float64(nil), g.V...)
	rows := newStencilBands(1, g.Ny-1, opt.Workers, g.Nx-2)
	h2 := g.H * g.H

	cur := g.V
	update := func(y0, y1 int) float64 {
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
		return maxd
	}

	iter := 0
	for ; iter < opt.MaxIter; iter++ {
		cur = g.V
		maxd := rows.sweep(update)
		g.V, next = next, g.V
		if math.IsNaN(maxd) || math.IsInf(maxd, 0) {
			return Result{Iterations: iter + 1}, ErrDiverged
		}
		if maxd < opt.Tol {
			iter++
			break
		}
	}
	res := Result{
		Iterations: iter,
		Converged:  iter < opt.MaxIter || g.Residual() < opt.Tol*4,
		Residual:   g.Residual(),
		Ops:        float64(iter) * float64(g.Nx*g.Ny) * 6,
	}
	return res, nil
}
