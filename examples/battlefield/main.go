// Battlefield reproduces the paper's defense scenario: "a central command
// and control station, airborne vehicles and sensors (AWACS, drones),
// ground-based wireless integrated network sensors ... and war fighters on
// the ground". It exercises the pieces the scenario demands: semantic
// discovery with geographic constraints, short-lived mobile services
// (drones on station for minutes), fault-tolerant composition that rebinds
// around destroyed services, and disconnection-managed delivery to a war
// fighter who drops off the network.
package main

import (
	"fmt"
	"log"
	"time"

	"pervasivegrid/internal/agent"
	"pervasivegrid/internal/composition"
	"pervasivegrid/internal/discovery"
	"pervasivegrid/internal/obs"
	"pervasivegrid/internal/ontology"
)

func main() {
	fmt.Println("=== Battlefield awareness on the pervasive grid ===")
	fmt.Println()
	o := ontology.Pervasive()

	// Virtual battlefield clock driving service leases.
	clock := obs.NewFakeClock()

	// Two brokers: one at main command, one forward-deployed.
	command := discovery.NewBroker("command-post", discovery.NewSemanticMatcher(o))
	forward := discovery.NewBroker("forward-base", discovery.NewSemanticMatcher(o))
	command.Reg.Clock, forward.Reg.Clock = clock, clock
	command.Peer(forward, true)

	// Long-standing services at command; short-lived drones forward.
	register := func(b *discovery.Broker, p *ontology.Profile, ttl time.Duration) {
		if _, err := b.Reg.Register(p, ttl); err != nil {
			log.Fatal(err)
		}
	}
	register(command, &ontology.Profile{
		Name: "awacs-1", Concept: "RadarSensor",
		Properties: map[string]ontology.Value{"x": ontology.Num(10), "y": ontology.Num(10), "altitude": ontology.Num(9000)},
	}, time.Hour)
	register(command, &ontology.Profile{
		Name: "intel-db", Concept: "IntelligenceReports",
	}, time.Hour)
	register(command, &ontology.Profile{
		Name: "weather-svc", Concept: "WeatherData",
	}, time.Hour)
	register(command, &ontology.Profile{
		Name: "hq-analytics", Concept: "DataMiningService",
	}, time.Hour)
	register(command, &ontology.Profile{
		Name: "hq-treeminer", Concept: "DecisionTreeService",
	}, time.Hour)
	register(command, &ontology.Profile{
		Name: "hq-spectra", Concept: "FourierSpectrumService",
	}, time.Hour)
	// Drones: 5 minutes on station.
	for i := 0; i < 3; i++ {
		register(forward, &ontology.Profile{
			Name: fmt.Sprintf("drone-%d", i), Concept: "AcousticSensor",
			Properties: map[string]ontology.Value{
				"x": ontology.Num(60 + float64(i)*5), "y": ontology.Num(40),
				"fuel": ontology.Num(0.4 + 0.2*float64(i)),
			},
		}, 5*time.Minute)
	}

	// 1. The war fighter asks: what sensors cover my neighborhood?
	fmt.Println("[war fighter] sensors within 20 km of position (62,38):")
	hits := forward.Lookup(ontology.Request{
		Concept: "SensorService",
		X:       62, Y: 38, HasLoc: true,
		Constraints: []ontology.Constraint{{Op: ontology.OpNear, Value: ontology.Num(20)}},
		PreferLow:   []string{"fuel"},
	}, 0)
	for _, m := range hits {
		fmt.Printf("  %-10s (%s) score=%.2f\n", m.Profile.Name, m.Profile.Concept, m.Score)
	}
	fmt.Println()

	// 2. Federated lookup: the forward base has no radar; the request
	// fans out to the command post's broker.
	fmt.Println("[forward base] need radar coverage — local miss, federated hit:")
	radarReq := ontology.Request{Concept: "RadarSensor"}
	localBest := "none"
	if local := forward.LookupLocal(radarReq); len(local) > 0 {
		localBest = fmt.Sprintf("%s (weak score %.2f)", local[0].Profile.Name, local[0].Score)
	}
	fed := forward.Lookup(radarReq, 5)
	fmt.Printf("  best local candidate: %s\n", localBest)
	fmt.Printf("  after fan-out to command post: %s (score %.2f)\n\n", fed[0].Profile.Name, fed[0].Score)

	// 3. Mission analytics pipeline with battle damage: the first
	// invocation of hq-treeminer fails (jammed); the engine rebinds.
	lib := composition.StreamMiningLibrary()
	plan, err := lib.Plan("mine-stream")
	if err != nil {
		log.Fatal(err)
	}
	register(command, &ontology.Profile{
		Name: "backup-treeminer", Concept: "DecisionTreeService",
	}, time.Hour)
	jammed := map[string]bool{"hq-treeminer": true}
	engine := &composition.Engine{
		Brokers: []*discovery.Broker{forward, command}, Onto: o,
		Mode: composition.Distributed, MaxAttempts: 3,
		Invoke: func(p *ontology.Profile, s composition.Step) error {
			if jammed[p.Name] {
				return fmt.Errorf("%s jammed", p.Name)
			}
			return nil
		},
	}
	exec := engine.Execute(plan)
	fmt.Printf("[composition] situation-analysis pipeline: succeeded=%v rebinds=%d\n", exec.Succeeded, exec.Rebinds())
	for _, s := range exec.Steps {
		fmt.Printf("  %-16s -> %-18s attempts=%d\n", s.Task, s.Service, s.Attempts)
	}
	fmt.Println()

	// 4. Time passes; the drones' leases expire and disappear from
	// discovery — the short-lived-service behaviour.
	clock.Advance(10 * time.Minute)
	gone := forward.LookupLocal(ontology.Request{Concept: "AcousticSensor"})
	fmt.Printf("[leases] after 10 minutes, drones on station: %d (they disappeared with their leases)\n\n", len(gone))

	// 5. Disconnection management: envelopes to a war fighter in a dead
	// zone are buffered by the deputy and flushed on reconnect.
	platform := agent.NewPlatform("battlefield")
	defer platform.Close()
	received := make(chan string, 16)
	var deputy *agent.DisconnectionDeputy
	err = platform.Register("warfighter-7", agent.HandlerFunc(func(env agent.Envelope, ctx *agent.Context) {
		var msg string
		if env.Decode(&msg) == nil {
			received <- msg
		}
	}), agent.Attributes{Agent: map[string]string{agent.AttrRole: agent.RoleClient}},
		func(next agent.Deputy) agent.Deputy {
			deputy = agent.NewDisconnectionDeputy(next)
			return deputy
		})
	if err != nil {
		log.Fatal(err)
	}

	deputy.SetConnected(false)
	fmt.Println("[deputy] war fighter enters a dead zone; command keeps sending:")
	for _, msg := range []string{"enemy armor sighted grid 62-40", "fall back to rally point B", "air support on station"} {
		env, err := agent.NewEnvelope("command", "warfighter-7", "inform", "mission-v1", msg)
		if err != nil {
			log.Fatal(err)
		}
		if err := platform.Send(env); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("  buffered while disconnected: %d envelopes\n", deputy.Buffered())
	flushed := deputy.SetConnected(true)
	fmt.Printf("  reconnected: %d envelopes flushed in order:\n", flushed)
	for i := 0; i < flushed; i++ {
		fmt.Printf("    %q\n", <-received)
	}
}
