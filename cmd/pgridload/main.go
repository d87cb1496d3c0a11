// Command pgridload is the city-scale load generator: it drives
// query traffic against a running pgridd fleet — or one of the built-in
// disaster scenarios — at a fixed open-loop arrival rate, measures
// latency from each request's *scheduled* send time (so a stalling
// server cannot silence its own tail — the coordinated-omission trap),
// and reports p50/p99/p999 plus the sustained-throughput ceiling as a
// pgridload/v1 JSON report.
//
// Usage:
//
//	# fixed-rate run against a fleet
//	pgridload -addrs 127.0.0.1:7070,127.0.0.1:7071 -rate 50 -duration 30s \
//	    -query "SELECT avg(temp) FROM sensors" -o report.json
//
//	# step-ramp search for the sustained-throughput ceiling
//	pgridload -addrs 127.0.0.1:7070 -ramp -rate 10 -ramp-max 640
//
//	# built-in scenarios (self-contained: spin up their own platforms)
//	pgridload -scenario storm -duration 10s
//	pgridload -scenario flood -duration 10s -o flood.json
//	pgridload -scenario storm -smoke   # short run, exit 1 unless clean
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/load"
	"pervasivegrid/internal/obs"
)

func main() {
	var (
		addrs    = flag.String("addrs", "", "comma-separated pgridd addresses (fleet mode)")
		query    = flag.String("query", "SELECT avg(temp) FROM sensors", "query each request submits")
		rate     = flag.Float64("rate", 20, "offered arrival rate, req/s (ramp: starting rate)")
		duration = flag.Duration("duration", 30*time.Second, "measured span per run (ramp: per step)")
		warmup   = flag.Duration("warmup", 2*time.Second, "schedule prefix excluded from histograms")
		workers  = flag.Int("workers", 32, "sender pool size")
		ramp     = flag.Bool("ramp", false, "step-ramp search for the sustained-throughput ceiling")
		rampMax  = flag.Float64("ramp-max", 0, "ramp rate limit, req/s (default 64x -rate)")
		scenario = flag.String("scenario", "", "built-in scenario: storm | flood")
		smoke    = flag.Bool("smoke", false, "scenario smoke mode: short low-rate run, exit 1 unless clean")
		sample   = flag.Float64("trace-sample", 0.01, "client-side head-sampling rate for traces (0 disables, 1 keeps all)")
		out      = flag.String("o", "", "write the JSON report here")
	)
	flag.Parse()

	var rep *load.Report
	var err error
	switch {
	case *scenario != "":
		rep, err = runScenario(*scenario, *duration, *smoke)
	case *addrs != "":
		rep, err = runFleet(strings.Split(*addrs, ","), *query, *rate, *duration, *warmup, *workers, *ramp, *rampMax, *sample)
	default:
		fmt.Fprintln(os.Stderr, "pgridload: need -addrs (fleet mode) or -scenario storm|flood")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("pgridload: %v", err)
	}

	printReport(rep)
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			log.Fatalf("pgridload: write %s: %v", *out, err)
		}
		fmt.Printf("\nreport written to %s\n", *out)
	}
	if *smoke {
		if err := checkScenario(*scenario, rep); err != nil {
			log.Fatalf("pgridload: smoke gate: %v", err)
		}
		fmt.Println("smoke gate: PASS")
	}
}

// runScenario dispatches to a built-in scenario; smoke mode trims the
// run and lowers the offered load to what any CI box sustains.
func runScenario(name string, dur time.Duration, smoke bool) (*load.Report, error) {
	switch name {
	case "storm":
		opts := load.StormOptions{Duration: dur}
		if smoke {
			opts.Duration = 3 * time.Second
			opts.BulkRate = 150
			opts.ServiceTime = 200 * time.Microsecond
			opts.PriorityRate = 10
		}
		return load.RunStorm(opts)
	case "flood":
		opts := load.FloodOptions{Duration: dur}
		if smoke {
			opts.Duration = 4 * time.Second
			opts.QueryRate = 20
			opts.RegisterRate = 15
			opts.HeartbeatRate = 10
			opts.Blips = 1
		}
		return load.RunFlood(opts)
	default:
		return nil, fmt.Errorf("unknown scenario %q (want storm or flood)", name)
	}
}

// checkScenario applies each scenario's pass criteria.
func checkScenario(name string, rep *load.Report) error {
	switch name {
	case "storm":
		if err := load.CheckStormReport(rep, 0.99); err != nil {
			return err
		}
		// Smoke runs far below the service ceiling: nothing may shed.
		if rep.Metrics["baseShed"] != 0 {
			return fmt.Errorf("storm smoke shed %g envelopes at low rate", rep.Metrics["baseShed"])
		}
		return nil
	case "flood":
		return load.CheckFloodReport(rep, 0.95, 0.95)
	default:
		return fmt.Errorf("unknown scenario %q", name)
	}
}

// runFleet drives AskQuery round-robin across the fleet: one client
// platform per daemon (every pgridd hosts its query agent under the same
// ID, so each needs its own link). Each client platform carries a
// head-sampled tracer + wide-event log so every request gets a TraceID —
// the histogram's tail buckets then name concrete traces to go dump on
// the server (`GET /trace?id=<exemplar>`).
func runFleet(addrs []string, query string, rate float64, dur, warmup time.Duration, workers int, ramp bool, rampMax, sample float64) (*load.Report, error) {
	type fleetClient struct {
		platform *agent.Platform
		link     *agent.Link
	}
	smp := obs.NewSampler(sample)
	clients := make([]*fleetClient, 0, len(addrs))
	for i, a := range addrs {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		p := agent.NewPlatform(fmt.Sprintf("pgridload-%d", i))
		p.Tracer = obs.NewTracer(4096)
		p.Tracer.SetSampler(smp)
		p.Events = obs.NewEventLog(1024)
		l := agent.DialReconnect(p, a, agent.ReconnectOptions{})
		clients = append(clients, &fleetClient{platform: p, link: l})
		defer p.Close()
		defer l.Close()
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("no addresses in -addrs")
	}

	policy := agent.DefaultRetryPolicy()
	var next atomic.Uint64
	doTraced := func(int) (uint64, error) {
		c := clients[next.Add(1)%uint64(len(clients))]
		r, trace, err := core.AskQueryTraced(c.platform, query, 10*time.Second, policy)
		if err != nil {
			return trace, err
		}
		if !r.OK {
			return trace, fmt.Errorf("query failed: %s", r.Error)
		}
		return trace, nil
	}
	do := func(i int) error { _, err := doTraced(i); return err }

	target := strings.Join(addrs, ",")
	if !ramp {
		res, err := load.RunTraced(load.Options{Rate: rate, Duration: dur, Warmup: warmup, Workers: workers}, doTraced)
		if err != nil {
			return nil, err
		}
		return load.NewReport("fleet-query", target, rate, res), nil
	}

	rampRes, err := load.Ramp(load.RampOptions{
		Start:        rate,
		MaxRate:      rampMax,
		StepDuration: dur,
		StepWarmup:   warmup,
		Workers:      workers,
	}, do)
	if err != nil {
		return nil, err
	}
	// The report's flat fields describe the last sustained step; the
	// per-step table and ceiling carry the search.
	rep := &load.Report{
		Schema:   load.ReportSchema,
		Scenario: "fleet-ramp",
		Target:   target,
		RateRPS:  rate,
	}
	if n := len(rampRes.Steps); n > 0 {
		last := rampRes.Steps[n-1]
		for i := n - 1; i >= 0; i-- {
			if rampRes.Steps[i].Sustained {
				last = rampRes.Steps[i]
				break
			}
		}
		rep.Throughput = last.Achieved
		rep.Latency.P50 = float64(last.P50) / float64(time.Millisecond)
		rep.Latency.P99 = float64(last.P99) / float64(time.Millisecond)
		rep.Latency.P999 = float64(last.P999) / float64(time.Millisecond)
	}
	rep.AttachRamp(rampRes)
	return rep, nil
}

func printReport(rep *load.Report) {
	fmt.Printf("scenario:   %s\n", rep.Scenario)
	if rep.Target != "" {
		fmt.Printf("target:     %s\n", rep.Target)
	}
	if rep.Offered > 0 {
		fmt.Printf("offered:    %d req @ %g/s\n", rep.Offered, rep.RateRPS)
		fmt.Printf("completed:  %d (%.2f%% errors)\n", rep.Completed, rep.ErrorRate*100)
		fmt.Printf("throughput: %.1f req/s\n", rep.Throughput)
		fmt.Printf("latency:    p50=%.2fms p99=%.2fms p999=%.2fms max=%.2fms\n",
			rep.Latency.P50, rep.Latency.P99, rep.Latency.P999, rep.Latency.Max)
		fmt.Printf("naive p99:  %.2fms (send-time measurement — the number a closed-loop harness would report)\n",
			rep.NaiveP99Ms)
	}
	if len(rep.Exemplars) > 0 {
		fmt.Println("exemplars:  (GET /trace?id=<trace> on the target to dump the timeline)")
		for _, k := range []string{"p99", "p999", "max"} {
			if t, ok := rep.Exemplars[k]; ok {
				fmt.Printf("  %-5s trace=%s\n", k, t)
			}
		}
	}
	if len(rep.Steps) > 0 {
		fmt.Printf("\n%-10s %-10s %-9s %-10s %-10s %s\n", "rate", "achieved", "errors", "p99", "p999", "verdict")
		for _, s := range rep.Steps {
			verdict := "sustained"
			if !s.Sustained {
				verdict = "FAILED: " + s.FailReason
			}
			fmt.Printf("%-10.0f %-10.1f %-9.2f %-10v %-10v %s\n",
				s.Rate, s.Achieved, s.ErrorRate*100, s.P99.Round(time.Microsecond), s.P999.Round(time.Microsecond), verdict)
		}
		if rep.Saturated {
			fmt.Printf("ceiling:    %.0f req/s sustained\n", rep.CeilingRPS)
		} else {
			fmt.Printf("ceiling:    >= %.0f req/s (never saturated; raise -ramp-max)\n", rep.CeilingRPS)
		}
	}
	if len(rep.Metrics) > 0 {
		fmt.Println("\nscenario metrics:")
		for _, k := range sortedKeys(rep.Metrics) {
			fmt.Printf("  %-22s %g\n", k, rep.Metrics[k])
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
