// Command pgridsim runs standalone sensor-network simulations: a
// continuous aggregate query under a chosen collection strategy, printing
// one CSV row per round (energy, alive nodes, latency, value). It is the
// "Simulator for sensor network" component of the paper exposed directly,
// useful for generating the decision maker's offline training data.
//
// With -fleet N it instead boots a miniature telemetry-plane deployment:
// N node platforms dial a monitor agent over TCP, report delta-encoded
// metrics and traces, probe their uplinks, and the demo prints the
// fleet's merged health view each second (optionally serving it over
// HTTP, and optionally killing one node mid-run to show the
// healthy→down transition).
//
// Usage:
//
//	pgridsim -rows 7 -cols 7 -strategy tree -rounds 200 -battery 0.02
//	pgridsim -strategy direct -loss 0.1 -agg max
//	pgridsim -fleet 3 -fleet-seconds 6 -fleet-kill 3 -fleet-addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/sensornet"
	"pervasivegrid/internal/telemetry"
)

func main() {
	rows := flag.Int("rows", 7, "sensor grid rows")
	cols := flag.Int("cols", 7, "sensor grid columns")
	strategy := flag.String("strategy", "tree", "collection strategy: direct|tree|cluster")
	aggName := flag.String("agg", "avg", "aggregate: sum|count|min|max|avg")
	rounds := flag.Int("rounds", 100, "collection rounds to run")
	battery := flag.Float64("battery", 0.02, "initial battery per sensor (J)")
	loss := flag.Float64("loss", 0, "per-transmission loss probability")
	noise := flag.Float64("noise", 0.5, "sensor noise stddev")
	epoch := flag.Float64("epoch", 30, "seconds between rounds (idle drain)")
	seed := flag.Int64("seed", 1, "simulation seed")
	fleetN := flag.Int("fleet", 0, "run a telemetry fleet demo with this many nodes instead of the sensor simulation")
	fleetSeconds := flag.Int("fleet-seconds", 6, "fleet demo duration in seconds")
	fleetKill := flag.Int("fleet-kill", 0, "fleet demo: kill this node (1-based) halfway through (0 = none)")
	fleetAddr := flag.String("fleet-addr", "", "fleet demo: serve /metrics, /healthz, /fleet.json on this address (empty = off)")
	flag.Parse()

	if *fleetN > 0 {
		if err := runFleetDemo(*fleetN, *fleetSeconds, *fleetKill, *fleetAddr); err != nil {
			log.Fatalf("pgridsim: fleet: %v", err)
		}
		return
	}

	agg, err := sensornet.ParseAggKind(*aggName)
	if err != nil {
		log.Fatalf("pgridsim: %v", err)
	}
	strat, err := sensornet.StrategyByName(*strategy)
	if err != nil {
		log.Fatalf("pgridsim: %v", err)
	}

	cfg := sensornet.DefaultConfig()
	cfg.InitialEnergy = *battery
	cfg.Seed = *seed
	nw := sensornet.NewGridNetwork(cfg, *rows, *cols)
	nw.SetField(sensornet.UniformField(25), *noise)
	nw.SetLossProb(*loss)

	fmt.Println("round,alive,coverage,value,energy_j,total_used_j,latency_s,messages,lost")
	for round := 1; round <= *rounds; round++ {
		res, err := strat.Collect(nw, sensornet.CollectRequest{Agg: agg, Time: float64(round) * *epoch})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgridsim: round %d: %v (network unreachable, stopping)\n", round, err)
			break
		}
		fmt.Printf("%d,%d,%d,%.4f,%.6g,%.6g,%.4f,%d,%d\n",
			round, nw.AliveCount(), res.Coverage, res.Value,
			res.EnergyJ, nw.TotalEnergyUsed(), res.Latency, res.Messages, nw.Stats().Lost)
		if nw.AliveCount() == 0 {
			break
		}
		nw.ChargeIdle(*epoch)
	}
}

// runFleetDemo boots a monitor + n reporting nodes over loopback TCP and
// narrates the fleet view once per second.
func runFleetDemo(n, seconds, kill int, addr string) error {
	fleet, err := telemetry.StartFleet(telemetry.FleetConfig{
		Nodes:    n,
		Interval: 250 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	h := telemetry.Handler(fleet.Monitor)
	if addr != "" {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, h) }()
		fmt.Printf("fleet: monitor view on http://%s/fleet.json (/metrics, /healthz, /traces)\n", ln.Addr())
	}
	healthz := func() int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code
	}

	fmt.Printf("fleet: %d nodes reporting to %s every 250ms\n", n, fleet.Gateway.Addr())
	killAt := seconds / 2
	for sec := 1; sec <= seconds; sec++ {
		for _, nd := range fleet.Nodes {
			if nd.Platform == nil {
				continue // killed
			}
			nd.Work(10)
			nd.Prober.ProbeOnce()
		}
		obs.Real.Sleep(time.Second)
		if sec == killAt && kill >= 1 && kill <= n {
			fmt.Printf("fleet: t=%ds killing node-%d (no shutdown handshake — staleness must detect it)\n", sec, kill)
			fleet.StopNode(kill - 1)
		}
		fv := fleet.Monitor.Fleet()
		fmt.Printf("fleet: t=%ds /healthz=%d worst=%s traces=%d\n", sec, healthz(), fv.Worst, fv.Traces)
		for _, nv := range fv.Nodes {
			fmt.Printf("  %-8s %-8s reports=%-4d missed=%-3d series=%-4d rtt=%.4fs drop=%.1f%% stale=%.1fs\n",
				nv.Node, nv.Health, nv.Reports, nv.Missed, nv.Series,
				nv.Observed.AvgDeliverSec, nv.Observed.DropRate*100, nv.StalenessSec)
		}
	}
	st := fleet.Platform.DeliveryStats()
	fmt.Printf("fleet: done (monitor delivered=%d dead-letters=%d)\n",
		st.Delivered, st.DeadLettered)
	return nil
}
