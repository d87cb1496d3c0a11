package load

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
	"pervasivegrid/internal/supervise"
)

// Flood-evacuation scenario: handhelds in a flooding district keep
// shelter advertisements alive under short leases, query for evacuation
// routes, and send priority heartbeats — all across a link that keeps
// dying (a FlakyProxy severs every connection a few times per run). The
// claim under test is the robustness substrate end to end: DialReconnect
// must buffer and replay through the outages, CallRetry must turn
// partitions into latency instead of failure, lease churn must keep the
// registry honest, and the priority lane must stay clean throughout.

// Flood scenario ontologies.
const (
	FloodOntologyRegister  = "x-evac-register"
	FloodOntologyRoute     = "x-evac-route"
	FloodOntologyHeartbeat = "pgrid-control-evac" // priority lane
)

// Flood scenario agent IDs on the base platform.
const (
	FloodRegistryID = agent.ID("evac-registry")
	FloodPlannerID  = agent.ID("evac-planner")
)

// FloodOptions shapes a flood-evacuation run.
type FloodOptions struct {
	// Duration is the measured span (default 10s).
	Duration time.Duration
	// Shelters is the advertised shelter population (default 10).
	Shelters int
	// LeaseTTL bounds each shelter advertisement (default 2s: misses a
	// couple of renewals and the shelter vanishes from the registry).
	LeaseTTL time.Duration
	// RegisterRate is the shelter register/renew rate in req/s (default
	// 20 — each shelter renews ~every Shelters/rate seconds).
	RegisterRate float64
	// QueryRate is the evacuation-route query rate in req/s (default 60).
	QueryRate float64
	// HeartbeatRate is the priority heartbeat rate in req/s (default 20).
	HeartbeatRate float64
	// Blips is how many times the link is severed mid-run (default 2).
	Blips int
	// Clock is the time source (default wall clock).
	Clock obs.Clock
}

func (o FloodOptions) withDefaults() FloodOptions {
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.Shelters <= 0 {
		o.Shelters = 10
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 2 * time.Second
	}
	if o.RegisterRate <= 0 {
		o.RegisterRate = 20
	}
	if o.QueryRate <= 0 {
		o.QueryRate = 60
	}
	if o.HeartbeatRate <= 0 {
		o.HeartbeatRate = 20
	}
	if o.Blips < 0 {
		o.Blips = 0
	} else if o.Blips == 0 {
		o.Blips = 2
	}
	if o.Clock == nil {
		o.Clock = obs.Real
	}
	return o
}

// floodRegister advertises one shelter.
type floodRegister struct {
	Shelter  int     `json:"shelter"`
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Capacity float64 `json:"capacity"`
}

// floodRouteReq asks for the nearest live shelter.
type floodRouteReq struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// floodRouteReply answers a route query.
type floodRouteReply struct {
	Shelter string  `json:"shelter"`
	Dist    float64 `json:"dist"`
	Live    int     `json:"live"`
}

// retryPolicy rides out a reconnect window: a few attempts spread across
// ~1s of backoff, each with its own attempt timeout.
func floodRetryPolicy(clk obs.Clock) agent.RetryPolicy {
	return agent.RetryPolicy{
		MaxAttempts:    4,
		BaseDelay:      100 * time.Millisecond,
		MaxDelay:       800 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Clock:          clk,
	}
}

// RunFlood stands up the evacuation base station behind a flaky link and
// drives the handheld population through it. The report's latency
// histograms measure the route queries (the evacuee-visible number);
// Metrics carries heartbeat delivery, reconnect and lease-churn
// accounting.
func RunFlood(opts FloodOptions) (*Report, error) {
	opts = opts.withDefaults()
	clk := opts.Clock

	base := agent.NewPlatform("evac-base")
	defer base.Close()
	reg := discovery.NewRegistry()
	reg.Clock = clk

	// evac-registry: shelters register/renew here; re-registering a name
	// replaces its lease, so renewal is just another register.
	err := base.Register(FloodRegistryID, agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var msg floodRegister
		if err := env.Decode(&msg); err != nil {
			return
		}
		name := fmt.Sprintf("shelter-%d", msg.Shelter)
		lease, err := reg.Register(&ontology.Profile{
			Name:    name,
			Concept: "EvacuationShelter",
			Properties: map[string]ontology.Value{
				"x":        ontology.Num(msg.X),
				"y":        ontology.Num(msg.Y),
				"capacity": ontology.Num(msg.Capacity),
			},
		}, opts.LeaseTTL)
		status := "ok"
		if err != nil {
			status = err.Error()
		}
		reply, rerr := env.Reply("inform", map[string]any{"status": status, "lease": lease.ID})
		if rerr != nil {
			return
		}
		_ = ctx.Send(reply)
	}), agent.Attributes{}, nil)
	if err != nil {
		return nil, err
	}

	// evac-planner: nearest live shelter by registry snapshot. Expired
	// leases are swept on every snapshot, so a shelter whose handheld
	// missed its renewals during an outage genuinely disappears.
	err = base.Register(FloodPlannerID, agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		if env.Ontology == FloodOntologyHeartbeat {
			reply, rerr := env.Reply("inform", map[string]string{"status": "alive"})
			if rerr != nil {
				return
			}
			_ = ctx.Send(reply)
			return
		}
		var q floodRouteReq
		if err := env.Decode(&q); err != nil {
			return
		}
		profiles := reg.Profiles()
		best, bestDist := "", math.MaxFloat64
		for _, p := range profiles {
			dx := p.Properties["x"].N - q.X
			dy := p.Properties["y"].N - q.Y
			if d := dx*dx + dy*dy; d < bestDist {
				best, bestDist = p.Name, d
			}
		}
		reply, rerr := env.Reply("inform", floodRouteReply{
			Shelter: best,
			Dist:    math.Sqrt(bestDist),
			Live:    len(profiles),
		})
		if rerr != nil {
			return
		}
		_ = ctx.Send(reply)
	}), agent.Attributes{}, nil)
	if err != nil {
		return nil, err
	}

	gw, err := agent.ListenAndServe(base, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer gw.Close()

	// The flaky proxy is the flood: every connection through it dies on
	// each blip, and the handhelds' reconnect layer has to dig out.
	proxy, err := NewFlakyProxy(gw.Addr())
	if err != nil {
		return nil, err
	}
	defer proxy.Close()

	client := agent.NewPlatform("evac-handhelds")
	defer client.Close()
	link := agent.DialReconnect(client, proxy.Addr(), agent.ReconnectOptions{
		MaxBuffer: 4096,
		BaseDelay: 20 * time.Millisecond,
		MaxDelay:  250 * time.Millisecond,
	})
	defer link.Close()

	policy := floodRetryPolicy(clk)

	// Seed every shelter before the flood so the first route queries have
	// candidates.
	for s := 0; s < opts.Shelters; s++ {
		if _, err := agent.CallRetry(client, FloodRegistryID, "request", FloodOntologyRegister,
			seedShelter(s, opts.Shelters), 5*time.Second, policy); err != nil {
			return nil, fmt.Errorf("load: flood seed shelter %d: %w", s, err)
		}
	}

	// Outage schedule: Blips evenly spaced interior points of the run.
	supervise.Spawn("flood-blips", func() {
		gap := opts.Duration / time.Duration(opts.Blips+1)
		for b := 0; b < opts.Blips; b++ {
			clk.Sleep(gap)
			proxy.DropAll()
		}
	})

	// Three open-loop populations: renewals, heartbeats (background) and
	// route queries (foreground, measured).
	var wg sync.WaitGroup
	var renewRes, hbRes *Result
	var renewErr, hbErr error
	wg.Add(2)
	supervise.Spawn("flood-renew", func() {
		defer wg.Done()
		renewRes, renewErr = Run(Options{
			Rate: opts.RegisterRate, Duration: opts.Duration, Clock: clk,
		}, func(i int) error {
			s := i % opts.Shelters
			_, err := agent.CallRetry(client, FloodRegistryID, "request", FloodOntologyRegister,
				seedShelter(s, opts.Shelters), 3*time.Second, policy)
			return err
		})
	})
	supervise.Spawn("flood-heartbeat", func() {
		defer wg.Done()
		hbRes, hbErr = Run(Options{
			Rate: opts.HeartbeatRate, Duration: opts.Duration, Clock: clk,
		}, func(int) error {
			_, err := agent.CallRetry(client, FloodPlannerID, "request", FloodOntologyHeartbeat,
				map[string]string{"op": "ping"}, 3*time.Second, policy)
			return err
		})
	})

	queryRes, err := Run(Options{
		Rate: opts.QueryRate, Duration: opts.Duration, Clock: clk,
	}, func(i int) error {
		env, err := agent.CallRetry(client, FloodPlannerID, "request", FloodOntologyRoute,
			floodRouteReq{X: float64(i % 100), Y: float64(i % 37)}, 3*time.Second, policy)
		if err != nil {
			return err
		}
		var reply floodRouteReply
		if err := env.Decode(&reply); err != nil {
			return err
		}
		if reply.Shelter == "" {
			return fmt.Errorf("no live shelter (registry empty)")
		}
		return nil
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if renewErr != nil {
		return nil, renewErr
	}
	if hbErr != nil {
		return nil, hbErr
	}

	linkStats := link.Stats()
	rep := NewReport("flood-evac", gw.Addr(), opts.QueryRate, queryRes)
	rep.Metrics = map[string]float64{
		"blips":                float64(opts.Blips),
		"linkDrops":            float64(proxy.Drops()),
		"reconnects":           float64(linkStats.Connects - 1),
		"replayed":             float64(linkStats.Replayed),
		"bufferOverflowed":     float64(linkStats.Overflowed),
		"queriesOK":            float64(queryRes.Completed),
		"queryDeliveryRate":    deliveryRate(queryRes),
		"renewalsOK":           float64(renewRes.Completed),
		"renewalDeliveryRate":  deliveryRate(renewRes),
		"heartbeatsOK":         float64(hbRes.Completed),
		"priorityDeliveryRate": deliveryRate(hbRes),
		"liveShelters":         float64(reg.Len()),
	}
	rep.notePriorityDeadLetters(base, client)
	return rep, nil
}

// seedShelter places shelter s on a ring so nearest-shelter answers vary
// with the query point.
func seedShelter(s, total int) floodRegister {
	angle := 2 * math.Pi * float64(s) / float64(total)
	return floodRegister{
		Shelter:  s,
		X:        50 + 40*math.Cos(angle),
		Y:        50 + 40*math.Sin(angle),
		Capacity: 100,
	}
}

// CheckFloodReport applies the scenario's pass criteria: the link must
// actually have been severed and recovered, queries must have kept
// flowing (retries turn outages into latency), heartbeats on the
// priority lane must be near-perfect, and the priority lane must be
// clean.
func CheckFloodReport(rep *Report, minQuery, minPriority float64) error {
	if rep.Metrics["blips"] > 0 {
		if rep.Metrics["linkDrops"] == 0 {
			return fmt.Errorf("flood: blips scheduled but no connections severed")
		}
		if rep.Metrics["reconnects"] == 0 {
			return fmt.Errorf("flood: link never reconnected after a blip")
		}
	}
	if got := rep.Metrics["queryDeliveryRate"]; got < minQuery {
		return fmt.Errorf("flood: query delivery %.4f below %.4f", got, minQuery)
	}
	if got := rep.Metrics["priorityDeliveryRate"]; got < minPriority {
		return fmt.Errorf("flood: heartbeat delivery %.4f below %.4f", got, minPriority)
	}
	if rep.Metrics["priorityDeadLetters"] != 0 {
		return priorityLaneErr("flood", rep)
	}
	if got := rep.Metrics["liveShelters"]; got == 0 {
		return fmt.Errorf("flood: registry empty at end of run — lease churn lost every shelter")
	}
	return nil
}
