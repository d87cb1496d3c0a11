package pde

import (
	"math"
	"testing"
)

func TestTransientValidation(t *testing.T) {
	g, _ := harmonicGrid(t, 9)
	if _, err := StepHeat2D(g, TransientConfig{Alpha: 0, Horizon: 1}); err == nil {
		t.Fatal("zero diffusivity should fail")
	}
	if _, err := StepHeat2D(g, TransientConfig{Alpha: 1, Horizon: 0}); err == nil {
		t.Fatal("zero horizon should fail")
	}
}

func TestTransientConservesSteadyState(t *testing.T) {
	// A solved steady state is a fixed point of the integrator.
	g, _ := harmonicGrid(t, 17)
	if _, err := SolveSOR(g, Options{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), g.V...)
	if _, err := StepHeat2D(g, TransientConfig{Alpha: 1e-4, Horizon: 100}); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.Abs(g.V[i]-before[i]) > 1e-6 {
			t.Fatalf("steady state drifted at %d: %g -> %g", i, before[i], g.V[i])
		}
	}
}

func TestTransientDiffusesHotSpot(t *testing.T) {
	n := 33
	g, err := NewGrid2D(n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBoundary(0)
	g.Set(n/2, n/2, 1000) // hot cell, NOT pinned: it must cool
	res, err := StepHeat2D(g, TransientConfig{Alpha: 0.1, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps < 1 || res.Dt <= 0 {
		t.Fatalf("result = %+v", res)
	}
	center := g.At(n/2, n/2)
	if center >= 1000 {
		t.Fatal("unpinned hot spot did not cool")
	}
	if g.At(n/2+3, n/2) <= 0 {
		t.Fatal("heat did not spread to neighbors")
	}
	// Maximum principle: nothing exceeds the initial max or drops below
	// the boundary min.
	for _, v := range g.V {
		if v < -1e-9 || v > 1000+1e-9 {
			t.Fatalf("maximum principle violated: %g", v)
		}
	}
}

func TestTransientPinnedSourceKeepsHeating(t *testing.T) {
	n := 25
	g, err := NewGrid2D(n, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.SetBoundary(0)
	g.Pin(n/2, n/2, 500) // persistent fire
	if _, err := StepHeat2D(g, TransientConfig{Alpha: 0.2, Horizon: 50}); err != nil {
		t.Fatal(err)
	}
	if g.At(n/2, n/2) != 500 {
		t.Fatal("pinned source changed")
	}
	near := g.At(n/2+1, n/2)
	if near < 10 {
		t.Fatalf("neighbor of pinned source = %g, want heated", near)
	}
	// Longer horizon heats the neighborhood more.
	g2, _ := NewGrid2D(n, n, 1)
	g2.SetBoundary(0)
	g2.Pin(n/2, n/2, 500)
	if _, err := StepHeat2D(g2, TransientConfig{Alpha: 0.2, Horizon: 200}); err != nil {
		t.Fatal(err)
	}
	if g2.At(n/2+3, n/2) <= g.At(n/2+3, n/2) {
		t.Fatal("longer forecast should diffuse further")
	}
}

func TestTransientParallelMatchesSerial(t *testing.T) {
	build := func() *Grid2D {
		g, _ := NewGrid2D(21, 21, 1)
		g.SetBoundary(10)
		g.Pin(10, 10, 300)
		g.Set(5, 5, 100)
		return g
	}
	g1, g2 := build(), build()
	if _, err := StepHeat2D(g1, TransientConfig{Alpha: 0.1, Horizon: 30, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := StepHeat2D(g2, TransientConfig{Alpha: 0.1, Horizon: 30, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	for i := range g1.V {
		if g1.V[i] != g2.V[i] {
			t.Fatalf("parallel transient differs at %d", i)
		}
	}
}

func TestFillIDW(t *testing.T) {
	g, _ := NewGrid2D(11, 11, 10)
	g.SetBoundary(0)
	FillIDW(g, 100, 100, []Sample{
		{X: 50, Y: 50, Value: 100},
		{X: 0, Y: 0, Value: 0},
	}, 2)
	if g.At(5, 5) < 50 {
		t.Fatalf("center = %g, want near the hot sample", g.At(5, 5))
	}
	if g.At(0, 0) != 0 {
		t.Fatal("fixed boundary must not be filled")
	}
	if g.At(2, 2) >= g.At(5, 5) {
		t.Fatal("interpolation should decay toward the cold sample")
	}
	// Empty samples: no-op.
	g2, _ := NewGrid2D(5, 5, 1)
	FillIDW(g2, 10, 10, nil, 2)
	for _, v := range g2.V {
		if v != 0 {
			t.Fatal("empty-sample fill changed values")
		}
	}
}
