package sensornet

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"pervasivegrid/internal/simevent"
)

// The bodies Broadcast and HopTree had before the query handler path was
// made cheap (DESIGN.md "Query handler path"), kept as oracles: one kernel
// event per receiving neighbour, and a fresh BFS per call.

type broadcastFunc func(nw *Network, from NodeID, payloadBytes int, deliver Deliver) int

func batchedBroadcast(nw *Network, from NodeID, payloadBytes int, deliver Deliver) int {
	return nw.Broadcast(from, payloadBytes, deliver)
}

func referenceBroadcast(nw *Network, from NodeID, payloadBytes int, deliver Deliver) int {
	src := nw.Node(from)
	if src == nil || !src.Alive() {
		nw.stats.Dropped++
		return 0
	}
	size := payloadBytes + nw.Cfg.HeaderBytes
	src.drain(nw.Cfg.Energy.TxCost(size, nw.Cfg.RadioRange))
	src.Sent++
	src.TxBytes += size
	nw.stats.Messages++
	nw.stats.Bytes += size
	nw.stats.EnergyJ += nw.Cfg.Energy.TxCost(size, nw.Cfg.RadioRange)
	bcastAt := nw.reserveTx(src, payloadBytes)
	reached := 0
	for _, nbrID := range src.Neighbors {
		dst := nw.Node(nbrID)
		if dst == nil || !dst.Alive() {
			continue
		}
		if nw.lost() {
			nw.stats.Lost++
			continue
		}
		dst.drain(nw.Cfg.Energy.RxCost(size))
		dst.Received++
		dst.RxBytes += size
		nw.stats.Deliveries++
		nw.stats.EnergyJ += nw.Cfg.Energy.RxCost(size)
		reached++
		if deliver != nil {
			to := nbrID
			if _, err := nw.Kernel.Schedule(bcastAt, fmt.Sprintf("bcast %d->%d", from, to), func() {
				deliver(to, from, nw.Kernel.Now())
			}); err != nil {
				break
			}
		}
	}
	nw.mirror()
	return reached
}

func referenceHopTree(nw *Network) map[NodeID]NodeID {
	parent := make(map[NodeID]NodeID)
	visited := map[NodeID]bool{BaseStationID: true}
	queue := []NodeID{BaseStationID}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nbr := range nw.Node(cur).Neighbors {
			if visited[nbr] {
				continue
			}
			n := nw.Node(nbr)
			if n == nil || !n.Alive() {
				continue
			}
			visited[nbr] = true
			parent[nbr] = cur
			queue = append(queue, nbr)
		}
	}
	return parent
}

func referenceDepth(tree map[NodeID]NodeID, id NodeID) int {
	d := 0
	for id != BaseStationID {
		p, ok := tree[id]
		if !ok {
			return -1
		}
		id = p
		d++
	}
	return d
}

// heard is one invocation of a broadcast's deliver callback.
type heard struct {
	to NodeID
	at simevent.Time
}

// floodVia is Flood over a chosen broadcast, recording every delivery and
// letting the caller act on each (stop the kernel, kill a node).
func floodVia(nw *Network, bcast broadcastFunc, origin NodeID, payloadBytes int, onDeliver func(n int)) (DisseminationResult, []heard) {
	start := nw.Kernel.Now()
	statsBefore := nw.Stats()
	seen := map[NodeID]bool{origin: true}
	last := start
	var log []heard

	var relay func(id NodeID)
	relay = func(id NodeID) {
		bcast(nw, id, payloadBytes, func(to, _ NodeID, at simevent.Time) {
			log = append(log, heard{to, at})
			if onDeliver != nil {
				onDeliver(len(log))
			}
			if seen[to] {
				return
			}
			seen[to] = true
			if float64(at) > float64(last) {
				last = at
			}
			relay(to)
		})
	}
	relay(origin)
	nw.Kernel.RunAll()

	statsAfter := nw.Stats()
	return DisseminationResult{
		Reached:  len(seen) - 1,
		Latency:  float64(last - start),
		Messages: statsAfter.Messages - statsBefore.Messages,
		Bytes:    statsAfter.Bytes - statsBefore.Bytes,
		EnergyJ:  statsAfter.EnergyJ - statsBefore.EnergyJ,
	}, log
}

// mapFlood is Flood as it stood while the set of reached nodes was a
// map[NodeID]bool and Reached was its size less the origin, kept as the
// oracle for the dense seen slice.
func mapFlood(nw *Network, origin NodeID, payloadBytes int) DisseminationResult {
	res, _ := floodVia(nw, batchedBroadcast, origin, payloadBytes, nil)
	return res
}

// twins builds two identical random deployments.
func twins(seed int64, n int, loss float64) (a, b *Network) {
	cfg := testConfig()
	cfg.Seed = seed
	cfg.InitialEnergy = 0.0012 // low enough that traffic alone kills nodes
	a, b = NewRandomNetwork(cfg, n), NewRandomNetwork(cfg, n)
	for _, nw := range []*Network{a, b} {
		nw.SetField(NewTemperatureField(20), 0.5)
		nw.SetLossProb(loss)
	}
	return a, b
}

// sameState fails unless the twins agree on the clock, the accounting and
// every node's battery, counters and radio reservation.
func sameState(t *testing.T, step string, a, b *Network) {
	t.Helper()
	if a.Kernel.Now() != b.Kernel.Now() {
		t.Fatalf("%s: clocks %v vs %v", step, a.Kernel.Now(), b.Kernel.Now())
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("%s: stats\n  %+v\n  %+v", step, a.Stats(), b.Stats())
	}
	for i, na := range a.Sensors {
		nb := b.Sensors[i]
		if na.Energy != nb.Energy || na.Sent != nb.Sent || na.Received != nb.Received ||
			na.TxBytes != nb.TxBytes || na.RxBytes != nb.RxBytes || na.Computed != nb.Computed ||
			na.txFree != nb.txFree {
			t.Fatalf("%s: sensor %d\n  %+v\n  %+v", step, i, *na, *nb)
		}
	}
}

// killAt schedules a sensor's death at an absolute virtual time on both
// twins, so it lands in the middle of whatever round is then running.
func killAt(t *testing.T, at simevent.Time, id NodeID, nws ...*Network) {
	t.Helper()
	for _, nw := range nws {
		victim := nw.Node(id)
		if _, err := nw.Kernel.Schedule(at, "kill", func() { victim.Energy = 0 }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBroadcastEqualsPerReceiverEvents drives twin networks through every
// dissemination and collection primitive, one twin broadcasting with one
// kernel event per transmission and the other with the reference's one
// event per receiver, and requires identical results, accounting, node
// state and delivery sequences throughout.
func TestBroadcastEqualsPerReceiverEvents(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, loss := range []float64{0, 0.2} {
			t.Run(fmt.Sprintf("seed=%d/loss=%g", seed, loss), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 101))
				a, b := twins(seed, 60, loss)

				// Deaths before the round, written straight to the battery.
				for i := 0; i < 3; i++ {
					id := rng.Intn(len(a.Sensors))
					a.Sensors[id].Energy, b.Sensors[id].Energy = 0, 0
				}
				// ... and one in the middle of the flood.
				killAt(t, a.Kernel.Now()+0.02, NodeID(rng.Intn(len(a.Sensors))), a, b)

				got := Flood(a, BaseStationID, 40)
				want, _ := floodVia(b, referenceBroadcast, BaseStationID, 40, nil)
				if got != want {
					t.Fatalf("flood: %+v, reference %+v", got, want)
				}
				sameState(t, "flood", a, b)

				killAt(t, a.Kernel.Now()+0.015, NodeID(rng.Intn(len(a.Sensors))), a, b)
				gotRes, gotLog := floodVia(a, batchedBroadcast, BaseStationID, 24, nil)
				wantRes, wantLog := floodVia(b, referenceBroadcast, BaseStationID, 24, nil)
				if gotRes != wantRes || !slices.Equal(gotLog, wantLog) {
					t.Fatalf("recorded flood: %+v (%d deliveries), reference %+v (%d)",
						gotRes, len(gotLog), wantRes, len(wantLog))
				}
				if len(gotLog) == 0 {
					t.Fatal("recorded flood delivered nothing")
				}
				sameState(t, "recorded flood", a, b)

				to := Position{X: rng.Float64() * 100, Y: rng.Float64() * 100}
				mover := NodeID(rng.Intn(len(a.Sensors)))
				a.MoveNode(mover, to)
				b.MoveNode(mover, to)

				for i := 0; i < 5; i++ {
					from := NodeID(rng.Intn(len(a.Sensors)))
					got, errA := Unicast(a, from, RawReadingBytes)
					want, errB := Unicast(b, from, RawReadingBytes)
					if got != want || (errA == nil) != (errB == nil) {
						t.Fatalf("unicast from %d: %+v %v, reference %+v %v", from, got, errA, want, errB)
					}
				}
				sameState(t, "unicast", a, b)

				for _, name := range []string{"direct", "tree", "cluster"} {
					sa, _ := StrategyByName(name)
					sb, _ := StrategyByName(name)
					killAt(t, a.Kernel.Now()+0.01, NodeID(rng.Intn(len(a.Sensors))), a, b)
					req := CollectRequest{Agg: AggAvg, Time: 1}
					got, errA := sa.Collect(a, req)
					want, errB := sb.Collect(b, req)
					if (errA == nil) != (errB == nil) || got.Value != want.Value || got.Coverage != want.Coverage ||
						got.Latency != want.Latency || got.EnergyJ != want.EnergyJ || got.Messages != want.Messages ||
						!slices.Equal(got.Readings, want.Readings) {
						t.Fatalf("%s: %+v %v, reference %+v %v", name, got, errA, want, errB)
					}
					sameState(t, name, a, b)
				}
			})
		}
	}
}

// TestDisseminationEqualsMapSeen runs rounds of Flood from the base
// station, from sensors and from an ID that is no node, on twin networks —
// one with the dense seen slice, the other with the map body above — and
// requires identical results and identical network state after each. Traffic drains batteries, so later rounds run on a
// network with dead nodes.
func TestDisseminationEqualsMapSeen(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, loss := range []float64{0, 0.2} {
			t.Run(fmt.Sprintf("seed=%d/loss=%g", seed, loss), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 31))
				a, b := twins(seed, 60, loss)
				origins := []NodeID{BaseStationID, NodeID(rng.Intn(60)), NodeID(rng.Intn(60)), 60}
				for round, origin := range origins {
					step := fmt.Sprintf("round %d from %d", round, origin)
					if got, want := Flood(a, origin, 40), mapFlood(b, origin, 40); got != want {
						t.Fatalf("%s: flood %+v, map seen %+v", step, got, want)
					}
					sameState(t, step+": flood", a, b)
				}
			})
		}
	}
}

// TestBroadcastStopMidBatch stops the kernel from inside a delivery: the
// deliveries that would have been later events of the same transmission
// must not happen, and a broadcast on the stopped kernel charges what the
// reference charged.
func TestBroadcastStopMidBatch(t *testing.T) {
	a, b := twins(3, 60, 0)
	stopAt := func(nw *Network) func(int) {
		return func(n int) {
			if n == 5 {
				nw.Kernel.Stop()
			}
		}
	}
	gotRes, gotLog := floodVia(a, batchedBroadcast, BaseStationID, 40, stopAt(a))
	wantRes, wantLog := floodVia(b, referenceBroadcast, BaseStationID, 40, stopAt(b))
	if len(wantLog) != 5 {
		t.Fatalf("reference delivered %d after a stop at 5", len(wantLog))
	}
	if gotRes != wantRes || !slices.Equal(gotLog, wantLog) {
		t.Fatalf("stopped flood: %+v %v, reference %+v %v", gotRes, gotLog, wantRes, wantLog)
	}
	sameState(t, "stopped flood", a, b)

	noop := func(NodeID, NodeID, simevent.Time) {}
	if got, want := batchedBroadcast(a, 7, 40, noop), referenceBroadcast(b, 7, 40, noop); got != want {
		t.Fatalf("broadcast on a stopped kernel reached %d, reference %d", got, want)
	}
	sameState(t, "broadcast on a stopped kernel", a, b)
}

// TestHopTreeEqualsReferenceBFS walks a network through random deaths (by
// drain and by writing Energy), revivals and moves, and after every step
// compares the cached tree and everything derived from it with a fresh
// reference BFS.
func TestHopTreeEqualsReferenceBFS(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		cfg.Seed = seed
		nw := NewRandomNetwork(cfg, 50)
		check := func(step string) {
			t.Helper()
			want := referenceHopTree(nw)
			if got := nw.HopTree(); !maps.Equal(got, want) {
				t.Fatalf("seed %d %s: tree %v, reference %v", seed, step, got, want)
			}
			connected := true
			depths := nw.Depths()
			for id := NodeID(-1); int(id) <= len(nw.Sensors); id++ {
				if id >= 0 && int(id) < len(depths) && depths[id] != referenceDepth(want, id) {
					t.Fatalf("seed %d %s: depth of %d = %d, reference %d", seed, step, id, depths[id], referenceDepth(want, id))
				}
				var route []NodeID
				for cur := id; cur != BaseStationID; {
					p, ok := want[cur]
					if !ok {
						route = nil
						break
					}
					route = append(route, p)
					cur = p
				}
				if got := nw.RouteToBase(id); !slices.Equal(got, route) {
					t.Fatalf("seed %d %s: route(%d) = %v, reference %v", seed, step, id, got, route)
				}
				if n := nw.Node(id); n != nil && n.Alive() && referenceDepth(want, id) < 0 {
					connected = false
				}
			}
			if nw.Connected() != connected {
				t.Fatalf("seed %d %s: Connected() = %v, reference %v", seed, step, nw.Connected(), connected)
			}
		}
		check("fresh")
		for step := 0; step < 120; step++ {
			held := nw.HopTree()
			snapshot := maps.Clone(held)
			s := nw.Sensors[rng.Intn(len(nw.Sensors))]
			var what string
			switch rng.Intn(6) {
			case 0:
				what = "drain"
				s.drain(s.Energy + 1)
			case 1:
				what = "energy=0"
				s.Energy = 0
			case 2:
				what = "revive"
				s.Energy = 1
			case 3:
				what = "move node"
				nw.MoveNode(s.ID, Position{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			case 4:
				what = "move base"
				nw.MoveBase(Position{X: rng.Float64() * 100, Y: rng.Float64() * 100})
			case 5:
				what = "nothing"
			}
			check(fmt.Sprintf("step %d (%s)", step, what))
			if !maps.Equal(held, snapshot) {
				t.Fatalf("seed %d step %d (%s): a tree handed out earlier was modified", seed, step, what)
			}
		}
	}
}

// TestHopTreeUnchangedAllocatesNothing pins the cached read: no allocation
// while neither the neighbor lists nor the alive set changed.
func TestHopTreeUnchangedAllocatesNothing(t *testing.T) {
	nw := NewGridNetwork(testConfig(), 10, 10)
	nw.HopTree()
	if allocs := testing.AllocsPerRun(100, func() {
		nw.HopTree()
		nw.Depths()
		nw.Connected()
	}); allocs != 0 {
		t.Fatalf("unchanged hop tree read allocates %v times", allocs)
	}
}

// TestStrategiesRepeatFromSeed runs every strategy twenty times under
// sensor noise and radio loss from one seed: which sensor draws which
// sample, and the order partials merge, must not depend on map order.
func TestStrategiesRepeatFromSeed(t *testing.T) {
	for _, name := range []string{"direct", "tree", "cluster"} {
		var first CollectResult
		for run := 0; run < 20; run++ {
			cfg := testConfig()
			cfg.Seed = 11
			nw := NewGridNetwork(cfg, 8, 8)
			nw.SetField(NewTemperatureField(20), 2.5)
			nw.SetLossProb(0.05)
			strat, err := StrategyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var res CollectResult
			for round := 0; round < 3; round++ {
				if res, err = strat.Collect(nw, CollectRequest{Agg: AggAvg, Time: float64(round)}); err != nil {
					t.Fatal(err)
				}
			}
			if run == 0 {
				first = res
			} else if res.Value != first.Value || res.Latency != first.Latency || res.EnergyJ != first.EnergyJ {
				t.Fatalf("%s run %d: value %v latency %v energy %v, first run %v %v %v", name, run,
					res.Value, res.Latency, res.EnergyJ, first.Value, first.Latency, first.EnergyJ)
			}
		}
	}
}

// TestTreeCollectUnderLossCountsEachSensorOnce: a send that fails fires the
// parent at once; the parent must not then also fire as a leaf and have its
// partial counted twice.
func TestTreeCollectUnderLossCountsEachSensorOnce(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		cfg := testConfig()
		cfg.Seed = seed
		nw := NewRandomNetwork(cfg, 64) // parents on either side of their children in ID order
		nw.SetField(UniformField(1), 0)
		nw.SetLossProb(0.3)
		res, err := TreeStrategy{}.Collect(nw, CollectRequest{Agg: AggSum})
		if err != nil {
			t.Fatal(err)
		}
		if res.Coverage > res.Selected || res.Value != float64(res.Coverage) {
			t.Fatalf("seed %d: sum %v over %d of %d selected sensors", seed, res.Value, res.Coverage, res.Selected)
		}
	}
}
