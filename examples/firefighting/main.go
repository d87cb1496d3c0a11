// Firefighting reproduces the paper's Figure 1 scenario as a narrative:
// a building is on fire; fire fighters arrive with handheld devices and
// query the in-building sensor network through the base station, which
// dynamically partitions each query between the sensors, itself, and the
// wired grid.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/sensornet"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.Noise = 1.0
	field := sensornet.NewTemperatureField(20)
	// The fire starts in the north-east quadrant and spreads.
	field.Ignite(sensornet.Hotspot{
		Center: sensornet.Position{X: 70, Y: 70},
		Peak:   600, Radius: 12, Start: -30, GrowthRate: 0.2, Spread: 0.1,
	})
	cfg.Field = field

	rt, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt.AssignRooms(3, 3) // rooms r0..r8
	if err := rt.AdvertiseDefaults(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Figure 1: fire fighters query the burning building ===")
	fmt.Println()

	// 1. The crew discovers the sensors nearest the reported fire.
	fmt.Println("[discovery] temperature sensors within 20 m of the reported hotspot (70,70):")
	matches := rt.Discover(ontology.Request{
		Concept: "TemperatureSensor",
		X:       70, Y: 70, HasLoc: true,
		Constraints: []ontology.Constraint{{Op: ontology.OpNear, Value: ontology.Num(20)}},
	})
	for i, m := range matches {
		if i >= 5 {
			fmt.Printf("  ... and %d more\n", len(matches)-5)
			break
		}
		x, _ := m.Profile.Prop("x")
		y, _ := m.Profile.Prop("y")
		fmt.Printf("  %-12s at (%s,%s) score=%.2f\n", m.Profile.Name, x, y, m.Score)
	}
	fmt.Println()

	// 2. Simple probe: is the stairwell passable?
	run(rt, "simple probe near the stairwell", "SELECT temp FROM sensors WHERE sensor = 13")

	// 3. Aggregate: how hot is the fire room on average?
	run(rt, "average temperature in room r8 (NE quadrant)", "SELECT avg(temp) FROM sensors WHERE room = 'r8'")

	// 4. Which rooms are dangerous right now?
	run(rt, "how many sensors read above 100 degrees", "SELECT count(temp) FROM sensors WHERE temp > 100")

	// 5. Complex: full temperature distribution — solved on the grid.
	res, err := rt.Submit("SELECT tempdist(temp) FROM sensors")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[complex] temperature distribution: model=%s peak=%.0f°C solve: %d iters, residual %.2g\n",
		res.Model, res.Value, res.Solve.Iterations, res.Solve.Residual)
	fmt.Println(heatmap(res))

	// 6. Forecast: where will it be hot in five minutes? The transient
	// heat equation integrates the reconstructed field forward.
	res, err = rt.Submit("SELECT forecast(temp) FROM sensors")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[forecast] predicted field %.0fs ahead: model=%s peak=%.0f°C (%d time steps)\n",
		core.ForecastHorizon, res.Model, res.Value, res.Solve.Iterations)
	fmt.Println(heatmap(res))

	// 7. The full 3-D temperature volume (the paper's "3D partial
	// differential equation"), solved on the grid.
	res, err = rt.Submit("SELECT isosurface(temp) FROM sensors")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[isosurface] 3-D solve %dx%dx%d: model=%s peak=%.0f°C (%d iters, residual %.2g)\n\n",
		res.Field3D.Nx, res.Field3D.Ny, res.Field3D.Nz, res.Model, res.Value, res.Solve.Iterations, res.Solve.Residual)

	// 8. Which grid resource runs the next solve? Negotiated by
	// contract net rather than dictated by the scheduler.
	platform := agent.NewPlatform("firefighting")
	defer platform.Close()
	if err := rt.RegisterSolverAgents(platform); err != nil {
		log.Fatal(err)
	}
	placement, winner, err := rt.NegotiateSolve(platform, 1e10, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[negotiation] contract net awarded the 1e10-op solve to %s (committed finish: %.3gs)\n\n",
		winner, placement.Finish)

	// 9. Continuous: watch the fire room while the crew moves in.
	res, err = rt.Submit("SELECT max(temp) FROM sensors WHERE room = 'r8' EPOCH DURATION 15")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("[continuous] max temp in r8, one reading per 15 s epoch (fire spreading):")
	for _, r := range res.Rounds {
		fmt.Printf("  t=%5.1fs  max=%.0f°C  (round energy %.3g J)\n", r.Time, r.Value, r.EnergyJ)
	}
}

func run(rt *core.Runtime, label, src string) {
	res, err := rt.Submit(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[%s] %s\n", res.Kind, label)
	fmt.Printf("  %s\n", src)
	fmt.Printf("  -> %.1f  (model=%s, %d sensors, %.3g J, %.3g s)\n\n",
		res.Value, res.Model, res.Coverage, res.EnergyJ, res.TimeSec)
}

// heatmap renders the solved field as ASCII, base station at the bottom.
func heatmap(res *core.Result) string {
	g := res.Field
	shades := " .:-=+*#%@"
	var b strings.Builder
	step := g.Ny / 16
	if step < 1 {
		step = 1
	}
	for y := g.Ny - 1; y >= 0; y -= step {
		b.WriteString("  ")
		for x := 0; x < g.Nx; x += step {
			v := (g.At(x, y) - 20) / (res.Value - 20 + 1e-9)
			idx := int(v * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
