package load

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/supervise"
)

// Sensor-storm scenario: thousands of bulk sensor readings per second
// converge on one base station whose mailbox is far too small for the
// deluge, driving the overload policy (DropOldest) into sustained
// shedding — while the priority lane must keep control traffic flowing.
// The claim under test is the two-lane mailbox design from the overload
// PR: bulk load sheds, telemetry/control does not.

// StormOntologyBulk tags shed-able sensor readings (normal lane).
const StormOntologyBulk = "x-storm-bulk"

// StormOntologyControl tags control pings; the pgrid-control prefix puts
// them on the priority lane.
const StormOntologyControl = "pgrid-control-storm"

// StormSinkID is the overloaded base-station agent.
const StormSinkID = agent.ID("storm-sink")

// StormOptions shapes a sensor-storm run.
type StormOptions struct {
	// Duration is the measured span (default 10s).
	Duration time.Duration
	// BulkRate is the offered sensor-reading rate in msgs/s (default
	// 3000 — above the sink's ~2000/s service ceiling, forcing sheds).
	BulkRate float64
	// PriorityRate is the control-ping rate in req/s (default 20).
	PriorityRate float64
	// ServiceTime is the sink's per-envelope handling cost (default
	// 500µs, i.e. a ~2000 msg/s service ceiling).
	ServiceTime time.Duration
	// Clock is the time source (default wall clock).
	Clock obs.Clock
}

func (o StormOptions) withDefaults() StormOptions {
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	if o.BulkRate <= 0 {
		o.BulkRate = 3000
	}
	if o.PriorityRate <= 0 {
		o.PriorityRate = 20
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 500 * time.Microsecond
	}
	if o.Clock == nil {
		o.Clock = obs.Real
	}
	return o
}

// stormReading is a bulk sensor sample.
type stormReading struct {
	Sensor  int     `json:"sensor"`
	Celsius float64 `json:"celsius"`
}

// RunStorm stands up a base station behind a real TCP gateway, floods it
// with bulk readings from a handheld-side platform, and measures whether
// control pings on the priority lane survive. The returned report's
// latency histograms are the *control-plane* latencies (the number that
// must stay flat while bulk sheds); bulk accounting rides in Metrics.
func RunStorm(opts StormOptions) (*Report, error) {
	opts = opts.withDefaults()
	clk := opts.Clock

	base := agent.NewPlatform("storm-base")
	// A normal lane deliberately tiny against the storm, shedding the
	// newest reading when full.
	base.Mailbox = agent.MailboxOptions{Capacity: 32, Policy: agent.DropNewest}
	defer base.Close()
	err := base.Register(StormSinkID, agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		clk.Sleep(opts.ServiceTime) // the per-message processing cost
		if env.Performative != "request" {
			return // bulk readings are fire-and-forget
		}
		reply, err := env.Reply("inform", map[string]string{"status": "ok"})
		if err != nil {
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

	client := agent.NewPlatform("storm-handhelds")
	defer client.Close()
	link, err := agent.Dial(client, gw.Addr(), nil)
	if err != nil {
		return nil, err
	}
	defer link.Close()

	// Bulk storm in the background; control pings measured in the
	// foreground. Both schedules are open-loop, so an overloaded base
	// station cannot slow the offered storm down.
	var bulkRes *Result
	var bulkErr error
	var wg sync.WaitGroup
	wg.Add(1)
	supervise.Spawn("storm-bulk", func() {
		defer wg.Done()
		bulkRes, bulkErr = Run(Options{
			Rate:     opts.BulkRate,
			Duration: opts.Duration,
			Clock:    clk,
		}, func(i int) error {
			env, err := agent.NewEnvelope("storm-sensor", StormSinkID, "inform",
				StormOntologyBulk, stormReading{Sensor: i % 4096, Celsius: 20 + float64(i%80)/10})
			if err != nil {
				return err
			}
			return client.Send(env)
		})
	})

	prioRes, err := Run(Options{
		Rate:     opts.PriorityRate,
		Duration: opts.Duration,
		Clock:    clk,
	}, func(int) error {
		_, err := agent.Call(client, StormSinkID, "request", StormOntologyControl,
			map[string]string{"op": "ping"}, 3*time.Second)
		return err
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if bulkErr != nil {
		return nil, bulkErr
	}

	stats := base.DeliveryStats()
	rep := NewReport("sensor-storm", gw.Addr(), opts.PriorityRate, prioRes)
	rep.Metrics = map[string]float64{
		"bulkRateRPS":          opts.BulkRate,
		"bulkOffered":          float64(bulkRes.Offered),
		"bulkSendErrors":       float64(bulkRes.Errors),
		"baseDelivered":        float64(stats.Delivered),
		"baseShed":             float64(stats.Shed),
		"priorityOffered":      float64(prioRes.Offered),
		"priorityOK":           float64(prioRes.Completed),
		"priorityDeliveryRate": deliveryRate(prioRes),
	}
	rep.notePriorityDeadLetters(base, client)
	return rep, nil
}

// deliveryRate is the completed fraction of offered load.
func deliveryRate(r *Result) float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Offered)
}

// notePriorityDeadLetters records the dead letters that rode the
// priority lane on the base and client platforms — the letters every
// scenario gate requires to be none — as the priorityDeadLetters metric,
// and names each one: platform, reason, From -> To, Seq and InReplyTo.
func (rep *Report) notePriorityDeadLetters(base, client *agent.Platform) {
	for _, side := range []struct {
		name string
		p    *agent.Platform
	}{{"base", base}, {"client", client}} {
		for _, dl := range side.p.DeadLetters() {
			if dl.Env.HighPriority() {
				rep.PriorityDeadLetters = append(rep.PriorityDeadLetters, fmt.Sprintf("%s %s %s -> %s seq=%d inReplyTo=%d",
					side.name, dl.Reason, dl.Env.From, dl.Env.To, dl.Env.Seq, dl.Env.InReplyTo))
			}
		}
	}
	rep.Metrics["priorityDeadLetters"] = float64(len(rep.PriorityDeadLetters))
}

// priorityLaneErr names the priority dead letters a failed gate counted.
func priorityLaneErr(scenario string, rep *Report) error {
	return fmt.Errorf("%s: %g dead letters on the priority lane [%s]",
		scenario, rep.Metrics["priorityDeadLetters"], strings.Join(rep.PriorityDeadLetters, "; "))
}

// CheckStormReport applies the scenario's pass criteria to a report:
// priority delivery ≥ minPriority and a clean priority lane. In overload
// runs (bulk rate above the service ceiling) callers additionally demand
// baseShed > 0 to prove the storm actually overloaded something.
func CheckStormReport(rep *Report, minPriority float64) error {
	if got := rep.Metrics["priorityDeliveryRate"]; got < minPriority {
		return fmt.Errorf("storm: priority delivery %.4f below %.4f", got, minPriority)
	}
	if rep.Metrics["priorityDeadLetters"] != 0 {
		return priorityLaneErr("storm", rep)
	}
	return nil
}
