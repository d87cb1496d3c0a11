package pde

import (
	"math"
	"testing"
)

// harmonicGrid builds a grid whose boundary is set to the harmonic
// function u(x,y) = x² - y², whose Laplacian is zero: the interior solution
// must match the analytic function.
func harmonicGrid(t *testing.T, n int) (*Grid2D, func(x, y int) float64) {
	t.Helper()
	g, err := NewGrid2D(n, n, 1.0/float64(n-1))
	if err != nil {
		t.Fatal(err)
	}
	exact := func(x, y int) float64 {
		fx := float64(x) / float64(n-1)
		fy := float64(y) / float64(n-1)
		return fx*fx - fy*fy
	}
	for x := 0; x < n; x++ {
		g.Pin(x, 0, exact(x, 0))
		g.Pin(x, n-1, exact(x, n-1))
	}
	for y := 0; y < n; y++ {
		g.Pin(0, y, exact(0, y))
		g.Pin(n-1, y, exact(n-1, y))
	}
	return g, exact
}

func checkHarmonic(t *testing.T, g *Grid2D, exact func(x, y int) float64, tol float64) {
	t.Helper()
	worst := 0.0
	for y := 1; y < g.Ny-1; y++ {
		for x := 1; x < g.Nx-1; x++ {
			if d := math.Abs(g.At(x, y) - exact(x, y)); d > worst {
				worst = d
			}
		}
	}
	if worst > tol {
		t.Fatalf("max error vs analytic solution = %g, want <= %g", worst, tol)
	}
}

func TestJacobiHarmonic(t *testing.T) {
	g, exact := harmonicGrid(t, 33)
	res, err := SolveJacobi(g, Options{Tol: 1e-9, MaxIter: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("jacobi did not converge: %+v", res)
	}
	checkHarmonic(t, g, exact, 1e-5)
}

func TestSORHarmonic(t *testing.T) {
	g, exact := harmonicGrid(t, 33)
	res, err := SolveSOR(g, Options{Tol: 1e-10, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("sor did not converge: %+v", res)
	}
	checkHarmonic(t, g, exact, 1e-5)
}

func TestCGHarmonic(t *testing.T) {
	g, exact := harmonicGrid(t, 33)
	res, err := SolveCG(g, Options{Tol: 1e-10, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("cg did not converge: %+v", res)
	}
	checkHarmonic(t, g, exact, 1e-5)
}

func TestSORFasterThanJacobi(t *testing.T) {
	gj, _ := harmonicGrid(t, 49)
	gs, _ := harmonicGrid(t, 49)
	rj, err := SolveJacobi(gj, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SolveSOR(gs, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Iterations >= rj.Iterations {
		t.Fatalf("SOR iterations %d >= Jacobi %d; SOR should converge much faster", rs.Iterations, rj.Iterations)
	}
}

func TestCGFewestIterations(t *testing.T) {
	gc, _ := harmonicGrid(t, 49)
	gs, _ := harmonicGrid(t, 49)
	rc, err := SolveCG(gc, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SolveSOR(gs, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Iterations > rs.Iterations*2 {
		t.Fatalf("CG iterations %d vastly exceed SOR %d", rc.Iterations, rs.Iterations)
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	for _, m := range []Method{Jacobi, SOR, CG} {
		g1, _ := harmonicGrid(t, 25)
		g2, _ := harmonicGrid(t, 25)
		r1, err := Solve(g1, m, Options{Tol: 1e-9, Workers: 1, MaxIter: 50000})
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		r2, err := Solve(g2, m, Options{Tol: 1e-9, Workers: 8, MaxIter: 50000})
		if err != nil {
			t.Fatalf("%v parallel: %v", m, err)
		}
		if !r1.Converged || !r2.Converged {
			t.Fatalf("%v convergence: serial=%v parallel=%v", m, r1.Converged, r2.Converged)
		}
		for i := range g1.V {
			if math.Abs(g1.V[i]-g2.V[i]) > 1e-6 {
				t.Fatalf("%v: parallel result diverges from serial at %d: %g vs %g", m, i, g1.V[i], g2.V[i])
			}
		}
	}
}

func TestPoissonSource(t *testing.T) {
	// -∇²u = 1 on the unit square with zero boundary has a positive
	// interior solution peaking at the center.
	n := 33
	g, err := NewGrid2D(n, n, 1.0/float64(n-1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Source {
		g.Source[i] = -1 // our convention: v = (nbrs - h²f)/4, f = -1 adds heat
	}
	res, err := SolveSOR(g, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("poisson solve did not converge")
	}
	center := g.At(n/2, n/2)
	if center <= 0 {
		t.Fatalf("center = %g, want positive", center)
	}
	// Analytic peak of -∇²u=1 on unit square is ~0.0737.
	if math.Abs(center-0.0737) > 0.005 {
		t.Fatalf("center = %g, want ~0.0737", center)
	}
	// Maximum principle: no interior cell exceeds the center
	// significantly and none is negative.
	for y := 1; y < n-1; y++ {
		for x := 1; x < n-1; x++ {
			v := g.At(x, y)
			if v < 0 || v > center+1e-9 {
				t.Fatalf("maximum principle violated at (%d,%d): %g", x, y, v)
			}
		}
	}
}

func TestInteriorPinnedCell(t *testing.T) {
	g, _ := harmonicGrid(t, 17)
	g.Pin(8, 8, 500) // a sensor reading pinned mid-grid
	if _, err := SolveSOR(g, Options{Tol: 1e-9}); err != nil {
		t.Fatal(err)
	}
	if g.At(8, 8) != 500 {
		t.Fatal("pinned cell was modified by the solver")
	}
	if g.At(8, 9) < 1 {
		t.Fatal("heat from pinned cell did not diffuse to neighbors")
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid2D(2, 5, 1); err == nil {
		t.Fatal("tiny grid should be rejected")
	}
	if _, err := NewGrid2D(5, 5, 0); err == nil {
		t.Fatal("zero spacing should be rejected")
	}
	if _, err := NewGrid3D(3, 3, 2, 1); err == nil {
		t.Fatal("tiny 3d grid should be rejected")
	}
}

func TestPinSamples(t *testing.T) {
	g, _ := harmonicGrid(t, 11)
	PinSamples(g, 100, 100, []Sample{
		{X: 50, Y: 50, Value: 10},
		{X: 50, Y: 50, Value: 20}, // same cell: averaged
		{X: 0, Y: 0, Value: 99},
	})
	if g.At(5, 5) != 15 {
		t.Fatalf("averaged pin = %v, want 15", g.At(5, 5))
	}
	if !g.Fixed[g.Idx(5, 5)] {
		t.Fatal("pinned cell not fixed")
	}
	if g.At(0, 0) != 99 {
		t.Fatal("corner sample not pinned")
	}
}

func TestIDW(t *testing.T) {
	samples := []Sample{{X: 0, Y: 0, Value: 10}, {X: 10, Y: 0, Value: 20}}
	if v := IDW(samples, 0, 0, 2); v != 10 {
		t.Fatalf("exact hit = %v, want 10", v)
	}
	mid := IDW(samples, 5, 0, 2)
	if math.Abs(mid-15) > 1e-9 {
		t.Fatalf("midpoint = %v, want 15", mid)
	}
	near := IDW(samples, 2, 0, 2)
	if near >= 15 || near <= 10 {
		t.Fatalf("near-first = %v, want between 10 and 15", near)
	}
	if !math.IsNaN(IDW(nil, 0, 0, 1)) {
		t.Fatal("empty samples should give NaN")
	}
}

func TestOptimalOmegaRange(t *testing.T) {
	for _, n := range []int{8, 32, 128} {
		w := OptimalOmega(n, n)
		if w <= 1 || w >= 2 {
			t.Fatalf("omega(%d) = %g, want in (1,2)", n, w)
		}
	}
	if OptimalOmega(16, 16) >= OptimalOmega(64, 64) {
		// Larger grids need omega closer to 2.
		t.Fatal("omega should increase with grid size")
	}
}

func TestEstimateOpsMonotone(t *testing.T) {
	small := EstimateJacobiOps(16, 16, 1e-6)
	big := EstimateJacobiOps(64, 64, 1e-6)
	if big <= small {
		t.Fatal("ops estimate should grow with grid size")
	}
	loose := EstimateJacobiOps(32, 32, 1e-2)
	tight := EstimateJacobiOps(32, 32, 1e-10)
	if tight <= loose {
		t.Fatal("ops estimate should grow with tighter tolerance")
	}
}

func BenchmarkJacobi64(b *testing.B)    { benchSolver(b, Jacobi, 64, 0) }
func BenchmarkSOR64(b *testing.B)       { benchSolver(b, SOR, 64, 0) }
func BenchmarkCG64(b *testing.B)        { benchSolver(b, CG, 64, 0) }
func BenchmarkSOR64Serial(b *testing.B) { benchSolver(b, SOR, 64, 1) }

func benchSolver(b *testing.B, m Method, n, workers int) {
	for i := 0; i < b.N; i++ {
		g, err := NewGrid2D(n, n, 1.0/float64(n-1))
		if err != nil {
			b.Fatal(err)
		}
		g.SetBoundary(100)
		g.Pin(n/2, n/2, 500)
		if _, err := Solve(g, m, Options{Tol: 1e-6, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPCGHarmonic(t *testing.T) {
	g, exact := harmonicGrid(t, 33)
	res, err := SolvePCG(g, Options{Tol: 1e-10, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("pcg did not converge: %+v", res)
	}
	checkHarmonic(t, g, exact, 1e-5)
}

func TestPCGFewerIterationsThanCG(t *testing.T) {
	gc, _ := harmonicGrid(t, 97)
	gp, _ := harmonicGrid(t, 97)
	rc, err := SolveCG(gc, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := SolvePCG(gp, Options{Tol: 1e-8, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Iterations >= rc.Iterations {
		t.Fatalf("PCG iterations %d should beat CG %d", rp.Iterations, rc.Iterations)
	}
}

func TestPCGWithInteriorPins(t *testing.T) {
	g, _ := harmonicGrid(t, 33)
	g.Pin(16, 16, 400)
	g.Pin(8, 20, 350)
	res, err := SolvePCG(g, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("pcg with pins did not converge")
	}
	if g.At(16, 16) != 400 || g.At(8, 20) != 350 {
		t.Fatal("pinned cells modified")
	}
	if g.Residual() > 1e-6 {
		t.Fatalf("residual = %g", g.Residual())
	}
}

func TestPCGParallelMatchesSerial(t *testing.T) {
	g1, _ := harmonicGrid(t, 25)
	g2, _ := harmonicGrid(t, 25)
	if _, err := SolvePCG(g1, Options{Tol: 1e-10, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := SolvePCG(g2, Options{Tol: 1e-10, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range g1.V {
		if math.Abs(g1.V[i]-g2.V[i]) > 1e-6 {
			t.Fatalf("parallel PCG diverges from serial at %d", i)
		}
	}
}

func BenchmarkPCG64(b *testing.B) { benchSolver(b, PCG, 64, 0) }

func TestSOR3DHarmonic(t *testing.T) {
	n := 13
	g, err := NewGrid3D(n, n, n, 1.0/float64(n-1))
	if err != nil {
		t.Fatal(err)
	}
	exact := func(x, y, z int) float64 {
		fx := float64(x) / float64(n-1)
		fy := float64(y) / float64(n-1)
		fz := float64(z) / float64(n-1)
		return fx*fx + fy*fy - 2*fz*fz
	}
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				if g.Fixed[g.Idx(x, y, z)] {
					g.Pin(x, y, z, exact(x, y, z))
				}
			}
		}
	}
	res, err := SolveSOR3D(g, Options{Tol: 1e-9, MaxIter: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("3d sor did not converge")
	}
	worst := 0.0
	for z := 1; z < n-1; z++ {
		for y := 1; y < n-1; y++ {
			for x := 1; x < n-1; x++ {
				if d := math.Abs(g.At(x, y, z) - exact(x, y, z)); d > worst {
					worst = d
				}
			}
		}
	}
	if worst > 1e-4 {
		t.Fatalf("3d sor max error = %g", worst)
	}
}

func TestSOR3DParallelMatchesSerial(t *testing.T) {
	build := func() *Grid3D {
		g, _ := NewGrid3D(11, 11, 11, 0.1)
		g.SetBoundary(5)
		g.Pin(5, 5, 5, 200)
		return g
	}
	g1, g2 := build(), build()
	if _, err := SolveSOR3D(g1, Options{Tol: 1e-9, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSOR3D(g2, Options{Tol: 1e-9, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range g1.V {
		if math.Abs(g1.V[i]-g2.V[i]) > 1e-7 {
			t.Fatalf("3d parallel SOR diverges at %d", i)
		}
	}
}
