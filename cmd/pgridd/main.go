// Command pgridd runs a Pervasive Grid node as a network daemon: it builds
// a simulated building deployment (sensor network + wired grid), hosts the
// query agent on an agent platform, and serves envelope traffic over TCP.
// Handhelds connect with pgridquery.
//
// Usage:
//
//	pgridd -addr 127.0.0.1:7070 -rows 10 -cols 10 -fire
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/core"
	"pervasivegrid/internal/durable"
	"pervasivegrid/internal/faultinject"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/sensornet"
	"pervasivegrid/internal/supervise"
	"pervasivegrid/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address for agent envelopes")
	name := flag.String("name", "pgridd", "node name: the platform name and the telemetry identity in the fleet view (make it unique per daemon)")
	rows := flag.Int("rows", 10, "sensor grid rows")
	cols := flag.Int("cols", 10, "sensor grid columns")
	fire := flag.Bool("fire", true, "ignite a fire at the building center")
	noise := flag.Float64("noise", 0.5, "sensor measurement noise stddev")
	cacheTTL := flag.Float64("cache", 0, "result-cache TTL in virtual seconds (0 = off)")
	faultDrop := flag.Float64("fault-drop", 0, "chaos: probability of silently dropping an inbound envelope")
	faultDup := flag.Float64("fault-dup", 0, "chaos: probability of duplicating an inbound envelope")
	faultLatency := flag.Duration("fault-latency", time.Duration(0), "chaos: added delivery latency")
	faultSeed := flag.Int64("fault-seed", 1, "chaos: fault-injection RNG seed")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text) and /metrics.json on this address (empty = off)")
	monitorOn := flag.Bool("monitor", false, "host the fleet monitor agent: aggregate telemetry reports, serve /fleet.json + fleet-aware /healthz on -metrics-addr")
	telemetryTo := flag.String("telemetry-to", "", "report this node's telemetry to a remote monitor daemon at host:port (empty = off)")
	telemetryEvery := flag.Duration("telemetry-interval", time.Second, "telemetry report and uplink-probe period")
	healthzOn := flag.Bool("healthz", false, "serve /healthz on -metrics-addr (liveness; fleet-aware when -monitor is set)")
	pprofOn := flag.Bool("pprof", false, "serve /debug/pprof/* runtime profiles on -metrics-addr")
	superviseOn := flag.Bool("supervise", true, "restart crashed agents with backoff; false = an agent panic kills the daemon")
	mailboxPolicy := flag.String("mailbox-policy", "drop-newest", "overload policy for full agent mailboxes: drop-newest, drop-oldest, or block")
	mailboxCap := flag.Int("mailbox-cap", 0, "per-agent mailbox capacity (0 = default 64)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive delivery failures that open a destination's circuit (0 = default 5)")
	breakerOpenFor := flag.Duration("breaker-open-for", 0, "cool-down before an open circuit half-opens (0 = default 2s)")
	breakerHalfOpen := flag.Int("breaker-half-open", 0, "successful probes that close a half-open circuit (0 = default 2)")
	drainTimeout := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown budget for queued envelopes to drain")
	dataDir := flag.String("data-dir", "", "durable state directory: agent checkpoints, dead letters, and service registrations survive restarts via a WAL (empty = in-memory only)")
	fsyncPolicy := flag.String("fsync", "always", "WAL fsync policy: always (fsync per append), interval (batched), or rotate (per segment)")
	fsyncEvery := flag.Duration("fsync-interval", 50*time.Millisecond, "sync period when -fsync=interval")
	walSegment := flag.Int64("wal-segment", 0, "WAL segment rotation threshold in bytes (0 = default 4MB)")
	traceSample := flag.Float64("trace-sample", 1, "head-sampling rate for span traces by TraceID hash (1 = keep all, 0.01 = ~1%; drop spans are always kept, and every conversation, sampled or not, emits its wide event to /events.json)")
	recomposeOn := flag.Bool("recompose", false, "host a provider agent per advertised service and arm adaptive re-composition: breaker transitions and fleet health verdicts trigger mid-plan re-planning with live conversation migration")
	recomposeCost := flag.Duration("recompose-cost", 0, "adaptive re-composition: a step invocation slower than this fires a cost degradation signal against its service (0 = off)")
	recomposeMaxReplans := flag.Int("recompose-max-replans", 3, "adaptive re-composition: re-plans allowed per conversation (negative = never, reproducing static execution)")
	flightDump := flag.Bool("flight-dump", false, "print the flight recorder's black box from -data-dir (post-crash forensics) and exit")
	flag.Parse()

	if *flightDump {
		if *dataDir == "" {
			log.Fatalf("pgridd: -flight-dump needs -data-dir")
		}
		fr, err := durable.OpenFlight(filepath.Join(*dataDir, "flight"))
		if err != nil {
			log.Fatalf("pgridd: flight open: %v", err)
		}
		fmt.Print(fr.DumpText())
		_ = fr.Close()
		return
	}

	cfg := core.DefaultConfig()
	cfg.Rows, cfg.Cols = *rows, *cols
	cfg.Noise = *noise
	field := sensornet.NewTemperatureField(20)
	if *fire {
		field.Ignite(sensornet.Hotspot{
			Center: sensornet.Position{X: cfg.Net.Width / 2, Y: cfg.Net.Height / 2},
			Peak:   500, Radius: 15, Start: -1, GrowthRate: 10, Spread: 0.05,
		})
	}
	cfg.Field = field

	rt, err := core.New(cfg)
	if err != nil {
		log.Fatalf("pgridd: %v", err)
	}
	rt.AssignRooms(2, 2)
	if err := rt.AdvertiseDefaults(); err != nil {
		log.Fatalf("pgridd: advertise: %v", err)
	}

	if *cacheTTL > 0 {
		rt.EnableCache(*cacheTTL)
	}

	var injector *faultinject.Injector
	if *faultDrop > 0 || *faultDup > 0 || *faultLatency > 0 {
		injector = faultinject.New(faultinject.Config{
			Seed:     *faultSeed,
			DropProb: *faultDrop,
			DupProb:  *faultDup,
			Latency:  *faultLatency,
		})
		rt.DeputyWrap = injector.WrapDeputy
		fmt.Printf("pgridd: CHAOS MODE drop=%.0f%% dup=%.0f%% latency=%v seed=%d\n",
			*faultDrop*100, *faultDup*100, *faultLatency, *faultSeed)
	}

	platform := agent.NewPlatform(*name)
	defer platform.Close()

	// Self-healing runtime configuration — must precede agent
	// registration so mailboxes and supervision pick it up.
	policy, err := agent.ParseMailboxPolicy(*mailboxPolicy)
	if err != nil {
		log.Fatalf("pgridd: %v", err)
	}
	platform.Mailbox = agent.MailboxOptions{Capacity: *mailboxCap, Policy: policy}
	platform.Breakers = supervise.NewBreakerSet(supervise.BreakerPolicy{
		FailureThreshold:  *breakerThreshold,
		OpenFor:           *breakerOpenFor,
		HalfOpenSuccesses: *breakerHalfOpen,
	})
	if *superviseOn {
		platform.OnAgentDown = func(id agent.ID, err error) {
			log.Printf("pgridd: agent %q exhausted its restart budget: %v", id, err)
		}
	} else {
		platform.Supervision = &supervise.Policy{Restart: false}
		platform.OnAgentDown = func(id agent.ID, err error) {
			log.Fatalf("pgridd: agent %q crashed (unsupervised): %v", id, err)
		}
	}

	// Durable state. With -data-dir the node recovers agent checkpoints,
	// the dead-letter ring, and live service registrations from snapshot
	// + WAL tail before any agent registers, so a kill -9 restart resumes
	// conversations instead of starting cold. A torn final record is
	// truncated, never a reason to refuse to boot.
	var store *durable.Store
	if *dataDir != "" {
		sp, err := durable.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			log.Fatalf("pgridd: %v", err)
		}
		store, err = durable.Open(*dataDir, durable.Options{
			Sync:         sp,
			SyncEvery:    *fsyncEvery,
			SegmentBytes: *walSegment,
		})
		if err != nil {
			log.Fatalf("pgridd: durable open: %v", err)
		}
		defer store.Close()
		store.AttachMetrics(rt.Metrics)
		store.AttachPlatform(platform)
		store.AttachRegistry(rt.Broker.Reg)
		fmt.Printf("pgridd: %s\n", store.Summary())
	}

	// Telemetry plane. With -monitor this daemon is the fleet aggregator:
	// it hosts the monitor agent (remote nodes report in over the same
	// envelope gateway queries use) and the probe echo responder. Its own
	// hops reach the stitched trace ring the way its events reach the
	// fleet ring: through the self-reporter below.
	var mon *telemetry.Monitor
	if *monitorOn {
		// The monitor shares the platform's breaker set: a node the
		// fleet view marks suspect/down gets its circuit forced open,
		// and the open circuits appear in /fleet.json.
		m, err := telemetry.RegisterMonitor(platform, telemetry.MonitorOptions{
			Interval: *telemetryEvery,
			Breakers: platform.Breakers,
		})
		if err != nil {
			log.Fatalf("pgridd: monitor: %v", err)
		}
		mon = m
		if err := telemetry.RegisterEcho(platform); err != nil {
			log.Fatalf("pgridd: echo: %v", err)
		}
	}

	// Observability pipeline. Every node, the monitor host included,
	// records spans through a head-sampled tracer (the monitor's
	// aggregate ring stays unsampled: reported spans already survived
	// sampling at their source) and emits one wide event per
	// conversation. With -data-dir both feed the flight recorder — a
	// WAL-journaled black box that survives kill -9 and is read back
	// with -flight-dump.
	platform.Tracer = obs.NewTracer(4096)
	platform.Tracer.SetSampler(obs.NewSampler(*traceSample))
	platform.Tracer.AttachMetrics(rt.Metrics)
	platform.Events = obs.NewEventLog(4096)
	platform.Events.AttachMetrics(rt.Metrics)
	var flight *durable.FlightRecorder
	if *dataDir != "" {
		flight, err = durable.OpenFlight(filepath.Join(*dataDir, "flight"))
		if err != nil {
			log.Fatalf("pgridd: flight recorder: %v", err)
		}
		defer flight.Close()
		if n := len(flight.RecoveredEvents()) + len(flight.RecoveredSpans()); n > 0 {
			fmt.Printf("pgridd: flight recorder holds %d pre-restart records (-flight-dump prints them)\n", n)
		}
		flight.Hook(platform.Tracer, platform.Events)
		// After store.AttachPlatform, so the black box marks ride the
		// same crash hooks durable state uses.
		flight.AttachPlatform(platform)
	}

	if err := rt.RegisterQueryAgent(platform); err != nil {
		log.Fatalf("pgridd: %v", err)
	}
	if err := rt.RegisterBrokerAgent(platform); err != nil {
		log.Fatalf("pgridd: %v", err)
	}
	if err := rt.RegisterSolverAgents(platform); err != nil {
		log.Fatalf("pgridd: %v", err)
	}

	// Adaptive re-composition. With -recompose every advertised service
	// gets a provider agent, and a composer stands armed over the default
	// situation-report plan: breaker transitions (delivery failures and
	// fleet-forced opens) and monitor health verdicts feed its degraded
	// set, so a mid-plan signal re-plans the rest of the conversation onto
	// substitute services instead of abandoning it.
	var composer *composition.Adaptive
	if *recomposeOn {
		n, err := rt.RegisterProviderAgents(platform)
		if err != nil {
			log.Fatalf("pgridd: providers: %v", err)
		}
		lib := composition.NewLibrary()
		for _, task := range []*composition.Task{
			{Name: "situation-report", Subtasks: []string{"survey", "solve"}},
			{Name: "survey", Concept: "TemperatureSensor",
				Outputs: []string{"TemperatureSensor"}},
			{Name: "solve", Concept: "HeatSolver",
				Inputs: []string{"TemperatureSensor"}, Outputs: []string{"HeatSolver"}},
		} {
			if err := lib.Define(task); err != nil {
				log.Fatalf("pgridd: compose library: %v", err)
			}
		}
		eng := rt.NewCompositionEngine(platform)
		// Share the platform's breaker set: a destination the delivery
		// path or the fleet monitor has quarantined is a service the
		// composer must steer around.
		eng.Breakers = platform.Breakers
		composer = &composition.Adaptive{
			Engine:        eng,
			Library:       lib,
			Goal:          "situation-report",
			Events:        platform.Events,
			Node:          *name,
			MaxReplans:    *recomposeMaxReplans,
			CostThreshold: *recomposeCost,
		}
		composer.Start()
		defer composer.Stop()
		composer.WatchBreakers(platform.Breakers)
		if mon != nil {
			cancel := mon.OnHealthChange(func(node string, from, to telemetry.Health) {
				if to != telemetry.Suspect && to != telemetry.Down {
					return
				}
				composer.Degrade(composition.Signal{
					Kind:    composition.SignalHealth,
					Service: node,
					Dead:    to == telemetry.Down,
					Detail:  fmt.Sprintf("fleet verdict %s -> %s", from, to),
				})
			})
			defer cancel()
		}
		fmt.Printf("pgridd: adaptive re-composition armed (%d provider agents, max-replans=%d, cost-threshold=%v)\n",
			n, *recomposeMaxReplans, *recomposeCost)
		// One boot-time conversation proves the loop end to end and warms
		// the proactive bindings.
		exec := composer.Run()
		fmt.Printf("pgridd: situation-report %s (steps=%d replans=%d migrations=%d)\n",
			map[bool]string{true: "composed", false: "abandoned"}[exec.Succeeded],
			len(exec.Steps), exec.Replans, exec.Migrations)
	}

	gw, err := agent.ListenAndServe(platform, *addr)
	if err != nil {
		log.Fatalf("pgridd: %v", err)
	}
	defer gw.Close()

	// With -telemetry-to this daemon is a reporting node: it dials the
	// aggregator over a reconnecting link, ships its full snapshot and
	// its new spans and events every interval, and probes its uplink
	// with echo round-trips so the aggregator learns real transport cost.
	// A -monitor daemon reports to itself, so the fleet view always
	// includes the monitor host.
	var rep *telemetry.Reporter
	if *telemetryTo != "" {
		link := agent.DialReconnect(platform, *telemetryTo, agent.ReconnectOptions{})
		defer link.Close()
		prober := telemetry.NewProber(platform, telemetry.ProbeOptions{Interval: *telemetryEvery})
		prober.Start()
		defer prober.Close()
		fmt.Printf("pgridd: reporting telemetry to %s every %v\n", *telemetryTo, *telemetryEvery)
	}
	if *telemetryTo != "" || mon != nil {
		rep = telemetry.StartReporter(platform, telemetry.ReporterOptions{
			Interval: *telemetryEvery,
			Sources:  []obs.Source{rt.Metrics},
		})
		defer rep.Close()
	}

	if *metricsAddr != "" {
		if injector != nil {
			injector.AttachMetrics(rt.Metrics)
		}
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("pgridd: metrics listener: %v", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		if mon != nil {
			// Fleet view: /metrics is node-labeled and merged; /healthz,
			// /fleet.json, /traces, /trace come with it.
			mux.Handle("/", telemetry.Handler(mon, platform.Metrics(), rt.Metrics))
		} else {
			mux.Handle("/", obs.Handler(platform.Metrics(), rt.Metrics))
			mux.Handle("/events.json", obs.EventsHandler(platform.Events))
			if *healthzOn {
				mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					fmt.Fprintln(w, `{"status":"ok"}`)
				})
			}
		}
		if *pprofOn {
			mux.HandleFunc("/debug/pprof/", httppprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		}
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Printf("pgridd: metrics server stopped: %v", err)
			}
		}()
		fmt.Printf("pgridd: metrics on http://%s/metrics (and /metrics.json)\n", ln.Addr())
		if mon != nil {
			fmt.Printf("pgridd: fleet view on http://%s/fleet.json, health on /healthz\n", ln.Addr())
		} else if *healthzOn {
			fmt.Printf("pgridd: liveness on http://%s/healthz\n", ln.Addr())
		}
		if *pprofOn {
			fmt.Printf("pgridd: profiles on http://%s/debug/pprof/\n", ln.Addr())
		}
	} else if *pprofOn || *healthzOn || mon != nil {
		log.Printf("pgridd: -monitor/-healthz/-pprof endpoints need -metrics-addr to be served")
	}

	// Catch signals before announcing the listener: a SIGTERM sent as soon
	// as "listening on" appears must drain, not kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGQUIT)
	fmt.Printf("pgridd: %d sensors, %d grid resources, %d services advertised\n",
		len(rt.Net.Sensors), len(rt.Cluster.Resources()), rt.Broker.Reg.Len())
	fmt.Printf("pgridd: listening on %s (agents: %q, %q, solver bidders)\n",
		gw.Addr(), core.QueryAgentID, core.BrokerAgentID)

	s := <-sig
	if s == syscall.SIGQUIT && flight != nil {
		// SIGQUIT is the operator's "preserve the black box" signal:
		// mark + fsync the flight WAL before the drain touches anything.
		flight.Mark("sigquit", nil)
	}

	// Graceful shutdown: stop accepting, let queued envelopes drain,
	// flush the final telemetry report, and withdraw this node's service
	// advertisements so peers re-bind instead of timing out against a
	// ghost. The deferred Closes then tear the rest down.
	fmt.Println("pgridd: signal received, draining")
	gw.Close()
	if !platform.Drain(*drainTimeout) {
		fmt.Printf("pgridd: drain timed out after %v with %d envelopes still queued\n",
			*drainTimeout, platform.QueuedEnvelopes())
	}
	if rep != nil {
		if err := rep.ReportNow(); err != nil {
			log.Printf("pgridd: final telemetry flush: %v", err)
		}
	}
	for _, p := range rt.Broker.Reg.Profiles() {
		rt.Broker.Reg.Deregister(p.Name)
	}
	if store != nil {
		// Fold the WAL into a snapshot so the next boot replays a short
		// tail instead of the whole session's journal.
		if err := store.Compact(); err != nil {
			log.Printf("pgridd: durable compact: %v", err)
		}
		fmt.Printf("pgridd: %s\n", store.Summary())
	}

	st := platform.DeliveryStats()
	fmt.Printf("pgridd: shutting down (delivered=%d shed=%d retries=%d dead-letters=%d",
		st.Delivered, st.Shed, st.Retries, st.DeadLettered)
	if sv := platform.SupervisionStats(); sv.Panics > 0 || sv.Restarts > 0 {
		fmt.Printf(" agent-panics=%d restarts=%d give-ups=%d", sv.Panics, sv.Restarts, sv.GiveUps)
	}
	for reason, n := range st.Reasons {
		fmt.Printf(" %s=%d", reason, n)
	}
	fmt.Println(")")
	if injector != nil {
		fs := injector.Stats()
		fmt.Printf("pgridd: chaos stats seen=%d dropped=%d duplicated=%d delayed=%d\n",
			fs.Seen, fs.Dropped, fs.Duplicated, fs.Delayed)
	}
}
